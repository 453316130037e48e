type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 16 0; len = 0 }
let length v = v.len

let reserve v n =
  if n > Array.length v.data then begin
    let data = Array.make (max n (2 * Array.length v.data)) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  reserve v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i = if i < v.len then v.data.(i) else 0

let set v i x =
  reserve v (i + 1);
  if i >= v.len then v.len <- i + 1;
  v.data.(i) <- x

(* slots past [len] are kept zero, so [set] beyond the end leaves zero gaps *)
let clear v =
  Array.fill v.data 0 v.len 0;
  v.len <- 0
let to_array v = Array.sub v.data 0 v.len

let append_to v dst pos =
  Array.blit v.data 0 dst pos v.len;
  pos + v.len
