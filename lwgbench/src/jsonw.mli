(** Minimal JSON writer for result files: unlike [Plwg_obs.Json] it
    carries floats, printed with all their digits. *)

type t = Bool of bool | Int of int | Num of float | Str of string | List of t list | Obj of (string * t) list

val to_string : t -> string
