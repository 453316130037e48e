(** Growable int arrays: sample logs and per-sequence tables that are
    appended to on one executor and read after the run. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
(** [get v i] is [0] for [i >= length v]. *)

val set : t -> int -> int -> unit
(** Grows the vector with zeroes up to index [i] if needed. *)

val clear : t -> unit
val to_array : t -> int array
val append_to : t -> int array -> int -> int
(** [append_to v dst pos] copies [v] into [dst] at [pos]; returns the
    position after the copy. *)
