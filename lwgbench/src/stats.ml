let grouped_percentile q sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = Float.min (q *. float_of_int n) (float_of_int n -. 0.5) in
    let i = int_of_float rank in
    let v = sorted.(i) in
    (* first index holding [v] and how many samples equal it *)
    let rec lo j = if j > 0 && sorted.(j - 1) = v then lo (j - 1) else j in
    let rec hi j = if j < n - 1 && sorted.(j + 1) = v then hi (j + 1) else j in
    let first = lo i and last = hi i in
    float_of_int v +. ((rank -. float_of_int first) /. float_of_int (last - first + 1))

let hist_percentile q hist ~overflow =
  let n = Array.fold_left ( + ) overflow hist in
  if n = 0 then nan
  else
    let rank = Float.min (q *. float_of_int n) (float_of_int n -. 0.5) in
    let rec find v below =
      if v >= Array.length hist then infinity
      else
        let c = hist.(v) in
        if float_of_int (below + c) > rank then float_of_int v +. ((rank -. float_of_int below) /. float_of_int c)
        else find (v + 1) (below + c)
    in
    find 0 0

let nearest_rank q = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let interquartile_mean = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      let k = n / 4 in
      let mid = Array.sub a k (n - (2 * k)) in
      Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
