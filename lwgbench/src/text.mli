(** [contains s sub]: whether [sub] occurs in [s]. *)
val contains : string -> string -> bool
