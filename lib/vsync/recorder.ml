open Plwg_sim
open Types

(* Deliveries are nearly every event of a run (hundreds of thousands in
   one benchmark cluster), and the recorder keeps them for the life of
   the cluster.  Boxed as [(time, Delivered {...})] cons cells they cost
   96 bytes each and the GC walks them on every major cycle, so each one
   is packed instead into a 40-byte row of a byte chunk:

     offset  0  time             int64
             8  group            Gid.code, int64
            16  view id          View_id.code, int64
            24  local id         int64
            32  node             int32
            36  origin           int32

   Every OCaml int round-trips through an int64, so a row holds any
   time up to [max_int]; node and origin ids must fit 31 bits.  Chunks
   have a fixed size and are never copied or resized: a full one stays
   where it is and the next row opens a fresh chunk.  Installs and
   leaves are rare and stay boxed.  One kind byte per event records
   which of the two stores the event went to, so [events] replays the
   exact interleaving. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let chunk_bits = 12
let chunk_records = 1 lsl chunk_bits
let row_bytes = 40
let kind_delivery = '\000'
let kind_boxed = '\001'

(* An append-only store of fixed-size records in chunks of
   [chunk_records]; only the directory of chunk pointers grows. *)
type chunks = {
  rec_bytes : int;
  mutable dir : Bytes.t array; [@shared_cell "every write holds the recorder's lock"]
  mutable len : int; [@shared_cell "every write holds the recorder's lock"]
}

let chunks rec_bytes = { rec_bytes; dir = [||]; len = 0 }

let chunk_of c i = c.dir.(i lsr chunk_bits)
let offset_of c i = (i land (chunk_records - 1)) * c.rec_bytes

let grow_dir c =
  let dir = Array.make (max 8 (2 * Array.length c.dir)) Bytes.empty in
  Array.blit c.dir 0 dir 0 (Array.length c.dir);
  c.dir <- dir

(* The chunk that record [c.len] goes to, opening it if [c.len] starts
   a new one. *)
let reserve c =
  let k = c.len lsr chunk_bits in
  if Int.equal (c.len land (chunk_records - 1)) 0 then begin
    if Int.equal k (Array.length c.dir) then grow_dir c;
    c.dir.(k) <- (Bytes.create (chunk_records * c.rec_bytes) [@alloc_ok "chunk: once per 4096 records"])
  end;
  c.dir.(k)
[@@zero_alloc_hot]

(* The nodes of a stack on a multi-domain runtime share one recorder,
   so every append holds [lock]. *)
type t = {
  rows : chunks;
  kinds : chunks;
  mutable boxed : (Time.t * Hwg.event) list; [@shared_cell "every write holds the recorder's lock"]
      (* installs and leaves, newest first *)
  lock : Mutex.t;
}

let create () = { rows = chunks row_bytes; kinds = chunks 1; boxed = []; lock = Mutex.create () }

let push_kind t kind =
  let b = reserve t.kinds in
  Bytes.set b (offset_of t.kinds t.kinds.len) kind;
  t.kinds.len <- t.kinds.len + 1
[@@zero_alloc_hot]

let append_delivery t ~time ~node ~group ~view ~origin ~local_id =
  let b = reserve t.rows in
  let o = offset_of t.rows t.rows.len in
  set64 b o (Int64.of_int time);
  set64 b (o + 8) (Int64.of_int group);
  set64 b (o + 16) (Int64.of_int view);
  set64 b (o + 24) (Int64.of_int local_id);
  set32 b (o + 32) (Int32.of_int node);
  set32 b (o + 36) (Int32.of_int origin);
  t.rows.len <- t.rows.len + 1;
  push_kind t kind_delivery
[@@zero_alloc_hot]

let check_id what id = if not (Int.equal (id lsr 31) 0) then invalid_arg ("Recorder.hook: " ^ what ^ " id out of range")

let hook t time event =
  match event with
  | Hwg.Delivered { node; group; view_id; origin; local_id } ->
      check_id "node" node;
      check_id "origin" origin;
      let group = Gid.code group and view = View_id.code view_id in
      Mutex.lock t.lock;
      append_delivery t ~time ~node ~group ~view ~origin ~local_id;
      Mutex.unlock t.lock
  | Hwg.Installed _ | Hwg.Left _ ->
      Mutex.lock t.lock;
      t.boxed <- (time, event) :: t.boxed;
      push_kind t kind_boxed;
      Mutex.unlock t.lock

(* Row readers.  The checks run after the recording has ended and read
   the rows in place, without building events. *)

let row_int t i field = Int64.to_int (get64 (chunk_of t.rows i) (offset_of t.rows i + field))
let row_int32 t i field = Int32.to_int (get32 (chunk_of t.rows i) (offset_of t.rows i + field))
let row_time t i = row_int t i 0
let row_group t i = row_int t i 8
let row_view t i = row_int t i 16
let row_local_id t i = row_int t i 24
let row_node t i = row_int32 t i 32
let row_origin t i = row_int32 t i 36

let delivered_event t i =
  ( row_time t i,
    Hwg.Delivered
      {
        node = row_node t i;
        group = Gid.of_code (row_group t i);
        view_id = View_id.of_code (row_view t i);
        origin = row_origin t i;
        local_id = row_local_id t i;
      } )

let events t =
  (* walk back from the newest event, so the oldest is consed last *)
  let rec walk k row boxed acc =
    if k = 0 then acc
    else
      let k = k - 1 in
      if Char.equal (Bytes.get (chunk_of t.kinds k) (offset_of t.kinds k)) kind_delivery then
        walk k (row - 1) boxed (delivered_event t (row - 1) :: acc)
      else
        match boxed with
        | event :: rest -> walk k row rest (event :: acc)
        | [] -> assert false (* one boxed event per [kind_boxed] byte *)
  in
  walk t.kinds.len t.rows.len t.boxed []

(* Every delivery in recording order, as (node, group code, view code,
   origin, local id). *)
let iter_deliveries t f =
  for i = 0 to t.rows.len - 1 do
    f (row_node t i) (row_group t i) (row_view t i) (row_origin t i) (row_local_id t i)
  done

let installs t =
  List.fold_left
    (fun acc (_, event) ->
      match event with Hwg.Installed { node; view } -> (node, view) :: acc | Hwg.Delivered _ | Hwg.Left _ -> acc)
    [] t.boxed

let installs_of t ~node ~group =
  List.filter_map
    (fun (n, view) -> if Node_id.equal n node && Gid.equal view.View.group group then Some view else None)
    (installs t)

let check_self_inclusion t =
  List.filter_map
    (fun (node, view) ->
      if View.mem node view then None
      else Some (Format.asprintf "%a installed %a which does not contain it" Node_id.pp node View.pp view))
    (installs t)

let check_view_agreement t =
  let tbl : (View_id.t * Gid.t, View.t) Hashtbl.t = Hashtbl.create 64 in
  List.filter_map
    (fun (node, view) ->
      let key = (view.View.id, view.View.group) in
      match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.add tbl key view;
          None
      | Some first ->
          if List.equal Node_id.equal first.View.members view.View.members then None
          else
            Some
              (Format.asprintf "view %a of %a installed with members %a at %a but %a elsewhere" View_id.pp
                 view.View.id Gid.pp view.View.group Node_id.pp_list view.View.members Node_id.pp node
                 Node_id.pp_list first.View.members))
    (installs t)

(* Installs per (node, group), segmented at Left events: a process that
   leaves and later rejoins starts a fresh membership incarnation, and
   the per-process invariants apply within one incarnation. *)
let group_installs t =
  let open_segments : (Node_id.t * Gid.t, View.t list) Hashtbl.t = Hashtbl.create 64 in
  let closed = ref [] in
  List.iter
    (fun (_, event) ->
      match event with
      | Hwg.Installed { node; view } ->
          let key = (node, view.View.group) in
          let sofar = try Hashtbl.find open_segments key with Not_found -> [] in
          Hashtbl.replace open_segments key (view :: sofar)
      | Hwg.Left { node; group } -> (
          let key = (node, group) in
          match Hashtbl.find_opt open_segments key with
          | Some views ->
              closed := (key, List.rev views) :: !closed;
              Hashtbl.remove open_segments key
          | None -> ())
      | Hwg.Delivered _ -> ())
    (List.rev t.boxed);
  Plwg_util.Tbl.fold_sorted
    ~cmp:(fun (na, ga) (nb, gb) ->
      let c = Node_id.compare na nb in
      if c <> 0 then c else Gid.compare ga gb)
    (fun key views acc -> (key, List.rev views) :: acc)
    open_segments !closed

let check_local_monotonicity t =
  List.concat_map
    (fun ((node, group), views) ->
      let rec walk acc = function
        | a :: (b :: _ as rest) ->
            let acc =
              if b.View.id.View_id.seq > a.View.id.View_id.seq then acc
              else
                Format.asprintf "%a/%a installed %a after %a (seq not increasing)" Node_id.pp node Gid.pp group
                  View_id.pp b.View.id View_id.pp a.View.id
                :: acc
            in
            walk acc rest
        | [ _ ] | [] -> acc
      in
      walk [] views)
    (group_installs t)

let check_view_id_unique_per_change t =
  List.concat_map
    (fun ((node, group), views) ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun view ->
          if Hashtbl.mem seen view.View.id then
            Some (Format.asprintf "%a/%a installed %a twice" Node_id.pp node Gid.pp group View_id.pp view.View.id)
          else begin
            Hashtbl.add seen view.View.id ();
            None
          end)
        views)
    (group_installs t)

let check_no_duplicate_delivery t =
  let seen = Hashtbl.create 256 in
  let found = ref [] in
  iter_deliveries t (fun node group _view origin local_id ->
      let key = (node, group, origin, local_id) in
      if Hashtbl.mem seen key then
        found :=
          Format.asprintf "%a delivered message %a/#%d of %a twice" Node_id.pp node Node_id.pp origin local_id
            Gid.pp (Gid.of_code group)
          :: !found
      else Hashtbl.add seen key ());
  List.rev !found

let check_fifo t =
  let last = Hashtbl.create 256 in
  let found = ref [] in
  iter_deliveries t (fun node group _view origin local_id ->
      let key = (node, group, origin) in
      let previous = try Hashtbl.find last key with Not_found -> -1 in
      Hashtbl.replace last key local_id;
      if local_id <= previous then
        found :=
          Format.asprintf "%a delivered %a/#%d of %a after #%d (FIFO violation)" Node_id.pp node Node_id.pp origin
            local_id Gid.pp (Gid.of_code group) previous
          :: !found);
  List.rev !found

(* Deliveries per (node, group code, view code), i.e. what each node
   delivered while a view was installed, identified by the view id the
   messages were tagged with; one pass over the rows, newest first. *)
let view_segments t =
  let segments : (Node_id.t * int * int, (Node_id.t * int) list) Hashtbl.t = Hashtbl.create 256 in
  iter_deliveries t (fun node group view origin local_id ->
      let key = (node, group, view) in
      let sofar = try Hashtbl.find segments key with Not_found -> [] in
      Hashtbl.replace segments key ((origin, local_id) :: sofar));
  segments

let segment_deliveries segments ~node ~group ~view_id =
  (try Hashtbl.find segments (node, Gid.code group, View_id.code view_id) with Not_found -> [])
  |> List.sort (fun (na, la) (nb, lb) ->
         let c = Node_id.compare na nb in
         if c <> 0 then c else Int.compare la lb)

let check_virtual_synchrony t =
  let segments = view_segments t in
  (* key: (group, V.id, V'.id) for consecutive installs; value: node -> set *)
  let transitions : (Gid.t * View_id.t * View_id.t, (Node_id.t * (Node_id.t * int) list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ((node, group), views) ->
      let rec walk = function
        | a :: (b :: _ as rest) ->
            let key = (group, a.View.id, b.View.id) in
            let segment = segment_deliveries segments ~node ~group ~view_id:a.View.id in
            let bucket = try Hashtbl.find transitions key with Not_found -> [] in
            Hashtbl.replace transitions key ((node, segment) :: bucket);
            walk rest
        | [ _ ] | [] -> ()
      in
      walk views)
    (group_installs t);
  Plwg_util.Tbl.fold_sorted
    ~cmp:(fun (ga, va, va') (gb, vb, vb') ->
      let c = Gid.compare ga gb in
      if c <> 0 then c
      else
        let c = View_id.compare va vb in
        if c <> 0 then c else View_id.compare va' vb')
    (fun (group, v, v') bucket acc ->
      match bucket with
      | [] | [ _ ] -> acc
      | (first_node, first_segment) :: rest ->
          List.fold_left
            (fun acc (node, segment) ->
              if List.equal (fun (na, la) (nb, lb) -> Node_id.equal na nb && Int.equal la lb) segment first_segment
              then acc
              else
                Format.asprintf
                  "virtual synchrony violated in %a between %a and %a: %a delivered %d messages, %a delivered %d"
                  Gid.pp group View_id.pp v View_id.pp v' Node_id.pp first_node (List.length first_segment)
                  Node_id.pp node (List.length segment)
                :: acc)
            acc rest)
    transitions []

let check_total_order t ~group =
  (* per view, per node: the order of deliveries; all must be prefix-compatible *)
  let orders : (View_id.t, (Node_id.t * (Node_id.t * int) list) list) Hashtbl.t = Hashtbl.create 16 in
  (* an id that no row can hold was never delivered *)
  let code = match Gid.code group with code -> code | exception Invalid_argument _ -> -1 in
  iter_deliveries t (fun node g view origin local_id ->
      if Int.equal g code then begin
        let view_id = View_id.of_code view in
        let bucket = try Hashtbl.find orders view_id with Not_found -> [] in
        let bucket =
          match List.assoc_opt node bucket with
          | Some sofar -> (node, (origin, local_id) :: sofar) :: List.remove_assoc node bucket
          | None -> (node, [ (origin, local_id) ]) :: bucket
        in
        Hashtbl.replace orders view_id bucket
      end);
  let prefix_compatible a b =
    let rec walk = function
      | (xo, xl) :: xs, (yo, yl) :: ys -> Node_id.equal xo yo && Int.equal xl yl && walk (xs, ys)
      | [], _ | _, [] -> true
    in
    walk (a, b)
  in
  Plwg_util.Tbl.fold_sorted ~cmp:View_id.compare
    (fun view_id bucket acc ->
      let sequences = List.map (fun (node, rev) -> (node, List.rev rev)) bucket in
      match sequences with
      | [] | [ _ ] -> acc
      | (first_node, first_seq) :: rest ->
          List.fold_left
            (fun acc (node, sequence) ->
              if prefix_compatible first_seq sequence then acc
              else
                Format.asprintf "total order violated in %a view %a between %a and %a" Gid.pp group View_id.pp
                  view_id Node_id.pp first_node Node_id.pp node
                :: acc)
            acc rest)
    orders []

let check_all t =
  check_self_inclusion t @ check_view_agreement t @ check_local_monotonicity t
  @ check_view_id_unique_per_change t @ check_no_duplicate_delivery t @ check_fifo t @ check_virtual_synchrony t
