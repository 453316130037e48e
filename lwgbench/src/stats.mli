(** Order statistics for the benchmark's samples. *)

val grouped_percentile : float -> int array -> float
(** [grouped_percentile q sorted] for integer samples in ascending
    order: each integer [v] is read as the bin [\[v, v+1)] and the
    percentile is interpolated inside its bin, so it keeps resolution
    below the sample unit.  [nan] on no samples. *)

val hist_percentile : float -> int array -> overflow:int -> float
(** The same over a histogram whose slot [v] counts samples equal to
    [v]; [overflow] samples lie beyond the last slot (they count in the
    rank but a percentile landing among them is [infinity]). *)

val nearest_rank : float -> float list -> float
(** [nearest_rank q l]: the smallest value with at least a share [q] of
    [l] at or below it; [nan] on []. *)

val interquartile_mean : float list -> float
(** Mean of the values between the lower and the upper quartile (the
    lowest and highest quarter dropped); [nan] on []. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle two for even
    length); [nan] on []. *)
