type t = Bool of bool | Int of int | Num of float | Str of string | List of t list | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no NaN or infinity: a metric that cannot be computed is null. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let rec to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f -> num f
  | Str s -> escape s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs -> "{" ^ String.concat "," (List.map (fun (k, v) -> escape k ^ ":" ^ to_string v) kvs) ^ "}"
