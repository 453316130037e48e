open Plwg_sim
module Rt = Plwg_runtime.Rt
module Protocol = Plwg_naming.Protocol

type Payload.t += Tapped of { sent_at : Time.t; body : Payload.t }

(* ------------------------------------------------------------------ *)
(* Message kinds and the layers they belong to                          *)
(* ------------------------------------------------------------------ *)

let k_ack = 0
let k_retx = 1
let k_hb = 2
let k_hw_data = 3
let k_hw_stable = 4
let k_hw_flush = 5
let k_hw_announce = 6
let k_ns_req = 7
let k_ns_reply = 8
let k_ns_gossip = 9
let k_ns_mm = 10
let k_l_data = 11
let k_l_gossip = 12
let k_l_ctrl = 13
let k_other = 14
let k_silent = 15
let k_upcall = 16
let k_send = 17
let k_sender = 18
let n_kinds = 19

let kind_names =
  [|
    "transport.ack";
    "transport.retransmit";
    "detector.heartbeat";
    "vsync.data";
    "vsync.stable";
    "vsync.flush";
    "vsync.announce";
    "naming.request";
    "naming.reply";
    "naming.gossip";
    "naming.mm";
    "lwg.data";
    "lwg.gossip";
    "lwg.ctrl";
    "other";
    "timer.silent";
    "app.upcall";
    "lwg.send";
    "app.sender";
  |]

let layers =
  [
    ("transport", [ k_ack; k_retx ]);
    ("detector", [ k_hb ]);
    ("vsync.data", [ k_hw_data; k_hw_stable ]);
    ("vsync.ctrl", [ k_hw_flush; k_hw_announce ]);
    ("naming", [ k_ns_req; k_ns_reply; k_ns_gossip; k_ns_mm ]);
    ("lwg", [ k_l_data; k_l_gossip; k_l_ctrl; k_send ]);
    ("app", [ k_upcall; k_sender ]);
    ("timer.silent", [ k_silent ]);
    ("other", [ k_other ]);
  ]

(* A timer span whose layer is not known until it sends. *)
let k_pending = -1

(* Classification of an extension constructor, before nesting is
   resolved: a transport segment is classified by its body, and HWG
   data by the LWG message it carries (for the LWG counters only; the
   span stays with the HWG). *)
type base = Seg | Nested of { kind : int; body : Obj.t -> Obj.t option } | Kind of int

let field_if_block o i = if Obj.is_block o && Obj.size o > i then Some (Obj.field o i) else None

(* Field offsets of the stack's unexported constructors: [Seg] is
   [{conn; seq; body}], [Hw_data] is [{group; view_id; msg}] with
   [msg] an [app_msg] whose last (6th) field is the body, and
   [Hw_to_req] ends with [body] at field 5.  Field 0 of an extension
   value is its constructor. *)
let seg_body o = field_if_block o 3

let hw_data_body o =
  match field_if_block o 3 with Some msg when Obj.is_block msg && Obj.size msg = 6 -> Some (Obj.field msg 5) | _ -> None

let hw_to_req_body o = field_if_block o 5

let base_of_name name =
  let short = match String.rindex_opt name '.' with Some i -> String.sub name (i + 1) (String.length name - i - 1) | None -> name in
  let in_module = Text.contains name in
  match short with
  | "Seg" when in_module "Transport" -> Seg
  | "Ack" when in_module "Transport" -> Kind k_ack
  | "Heartbeat" -> Kind k_hb
  | "Hw_data" -> Nested { kind = k_hw_data; body = hw_data_body }
  | "Hw_to_req" -> Nested { kind = k_hw_data; body = hw_to_req_body }
  | "Hw_stable" -> Kind k_hw_stable
  | "Hw_change_req" | "Hw_stop" | "Hw_stop_nack" | "Hw_flushed" | "Hw_install" -> Kind k_hw_flush
  | "Hw_join_announce" | "Hw_view_announce" -> Kind k_hw_announce
  | "Ns_set" | "Ns_read" | "Ns_testset" -> Kind k_ns_req
  | "Ns_reply" | "Ns_ack" -> Kind k_ns_reply
  | "Ns_gossip" -> Kind k_ns_gossip
  | "Ns_multiple_mappings" -> Kind k_ns_mm
  | "L_data" -> Kind k_l_data
  | "L_gossip" -> Kind k_l_gossip
  | s when String.length s > 2 && String.equal (String.sub s 0 2) "L_" && in_module "Messages" -> Kind k_l_ctrl
  | _ -> Kind k_other

(* ------------------------------------------------------------------ *)
(* Per-node state                                                      *)
(* ------------------------------------------------------------------ *)

let max_depth = 32
let transit_slots = 1 lsl 16

type node = {
  (* open spans, innermost at [depth - 1] *)
  mutable depth : int;
  st : int array;  (* start, ns *)
  ch : int array;  (* time covered by children and tap work, ns *)
  kd : int array;  (* kind, or [k_pending] *)
  (* totals *)
  self_ns : int array;
  calls : int array;
  mutable top_ns : int;
  mutable tap_ns : int;
  mutable events : int;
  msgs : int array;
  words : int array;
  mutable segs : int;
  mutable acks : int;
  mutable retx : int;
  mutable datagrams : int;
  transit : int array;  (* virtual µs, last slot clamps *)
  rtts : Ivec.t;
  (* classification state that survives [reset] *)
  memo : (int, base) Hashtbl.t;
  seg_hi : (int * int, int) Hashtbl.t;  (* (dst, conn) -> highest seq sent *)
  ns_pending : (int, Time.t) Hashtbl.t;  (* naming req id -> first send *)
}

let new_node () =
  {
    depth = 0;
    st = Array.make max_depth 0;
    ch = Array.make max_depth 0;
    kd = Array.make max_depth 0;
    self_ns = Array.make n_kinds 0;
    calls = Array.make n_kinds 0;
    top_ns = 0;
    tap_ns = 0;
    events = 0;
    msgs = Array.make n_kinds 0;
    words = Array.make n_kinds 0;
    segs = 0;
    acks = 0;
    retx = 0;
    datagrams = 0;
    transit = Array.make transit_slots 0;
    rtts = Ivec.create ();
    memo = Hashtbl.create 64;
    seg_hi = Hashtbl.create 64;
    ns_pending = Hashtbl.create 16;
  }

type t = { inner : Rt.t; nodes : node array; mutable wall_ns : int }

let clock () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let open_span ns kind =
  let d = ns.depth in
  if d >= max_depth then failwith "tap: span stack overflow";
  ns.kd.(d) <- kind;
  ns.ch.(d) <- 0;
  ns.depth <- d + 1;
  ns.st.(d) <- clock ()

let close_span ns =
  let t1 = clock () in
  let d = ns.depth - 1 in
  let dur = t1 - ns.st.(d) in
  let k = if ns.kd.(d) < 0 then k_silent else ns.kd.(d) in
  ns.self_ns.(k) <- ns.self_ns.(k) + dur - ns.ch.(d);
  ns.calls.(k) <- ns.calls.(k) + 1;
  ns.depth <- d;
  if d > 0 then ns.ch.(d - 1) <- ns.ch.(d - 1) + dur else ns.top_ns <- ns.top_ns + dur

(* Tap work done at [ns] since [c0]: charged to the tap and hidden from
   the span it interrupts (outside any span it still counts as time
   spent at the top level, so the totals keep adding up). *)
let charge_tap ns c0 =
  let dt = clock () - c0 in
  ns.tap_ns <- ns.tap_ns + dt;
  if ns.depth > 0 then ns.ch.(ns.depth - 1) <- ns.ch.(ns.depth - 1) + dt else ns.top_ns <- ns.top_ns + dt

let with_span ns kind f =
  open_span ns kind;
  match f () with
  | () -> close_span ns
  | exception e ->
      close_span ns;
      raise e

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let base_of ns (o : Obj.t) =
  match Obj.Extension_constructor.of_val o with
  | exception Invalid_argument _ -> Kind k_other
  | c -> (
      let id = Obj.Extension_constructor.id c in
      match Hashtbl.find_opt ns.memo id with
      | Some b -> b
      | None ->
          let b = base_of_name (Obj.Extension_constructor.name c) in
          Hashtbl.add ns.memo id b;
          b)

(* The layer kind of a message, counting [copies] wire copies of
   [words] words against it and against any LWG message it carries. *)
let rec classify ns o ~copies ~words =
  let count k =
    if copies > 0 then begin
      ns.msgs.(k) <- ns.msgs.(k) + copies;
      ns.words.(k) <- ns.words.(k) + (copies * words)
    end
  in
  match base_of ns o with
  | Seg -> ( match seg_body o with Some body -> classify ns body ~copies ~words | None -> k_other)
  | Kind k ->
      count k;
      k
  | Nested { kind; body } ->
      count kind;
      (match body o with Some inner when copies > 0 -> ignore (classify ns inner ~copies ~words) | _ -> ());
      kind

let unseg ns o = match base_of ns o with Seg -> seg_body o | Kind _ | Nested _ -> Some o

let account_send t ~src ~dsts p =
  let ns = t.nodes.(src) in
  let c0 = clock () in
  let o = Obj.repr p in
  let copies = List.length dsts in
  let words = Obj.reachable_words o in
  let kind = classify ns o ~copies ~words in
  let kind =
    match base_of ns o with
    | Seg ->
        ns.segs <- ns.segs + copies;
        let conn : int = Obj.obj (Obj.field o 1) and seq : int = Obj.obj (Obj.field o 2) in
        List.fold_left
          (fun kind dst ->
            let key = (dst, conn) in
            match Hashtbl.find_opt ns.seg_hi key with
            | Some hi when seq <= hi ->
                ns.retx <- ns.retx + 1;
                k_retx
            | _ ->
                Hashtbl.replace ns.seg_hi key seq;
                kind)
          kind dsts
    | Kind k when k = k_ack ->
        ns.acks <- ns.acks + copies;
        kind
    | Kind _ | Nested _ ->
        ns.datagrams <- ns.datagrams + copies;
        kind
  in
  (match unseg ns o with
  | Some inner -> (
      match (Obj.obj inner : Payload.t) with
      | Protocol.Ns_set { req; _ } | Protocol.Ns_read { req; _ } | Protocol.Ns_testset { req; _ } ->
          if not (Hashtbl.mem ns.ns_pending req) then Hashtbl.add ns.ns_pending req (Rt.now t.inner)
      | _ -> ())
  | None -> ());
  (if ns.depth > 0 then
     let d = ns.depth - 1 in
     if ns.kd.(d) = k_pending then ns.kd.(d) <- kind);
  charge_tap ns c0

let on_deliver t ns ~sent_at body =
  let c0 = clock () in
  let now = Rt.now t.inner in
  let transit = min (transit_slots - 1) (max 0 (now - sent_at)) in
  ns.transit.(transit) <- ns.transit.(transit) + 1;
  let o = Obj.repr body in
  ns.kd.(ns.depth - 1) <- classify ns o ~copies:0 ~words:0;
  (match unseg ns o with
  | Some inner -> (
      match (Obj.obj inner : Payload.t) with
      | Protocol.Ns_reply { req; _ } | Protocol.Ns_ack { req } -> (
          match Hashtbl.find_opt ns.ns_pending req with
          | Some t0 ->
              Hashtbl.remove ns.ns_pending req;
              Ivec.push ns.rtts (now - t0)
          | None -> ())
      | _ -> ())
  | None -> ());
  charge_tap ns c0

(* ------------------------------------------------------------------ *)
(* The runtime                                                         *)
(* ------------------------------------------------------------------ *)

let timer t node f () =
  let ns = t.nodes.(node) in
  ns.events <- ns.events + 1;
  with_span ns k_pending f

module Tapped_rt : Rt.S with type t = t = struct
  type nonrec t = t

  let now t = Rt.now t.inner
  let n_nodes t = Rt.n_nodes t.inner
  let nodes t = Rt.nodes t.inner
  let is_alive t node = Rt.is_alive t.inner node

  let subscribe t node handler =
    Rt.subscribe t.inner node (fun ~src payload ->
        match payload with
        | Tapped { sent_at; body } ->
            let ns = t.nodes.(node) in
            ns.events <- ns.events + 1;
            with_span ns k_other (fun () ->
                on_deliver t ns ~sent_at body;
                handler ~src body)
        | other -> handler ~src other)

  let send t ~src ~dst payload =
    account_send t ~src ~dsts:[ dst ] payload;
    Rt.send t.inner ~src ~dst (Tapped { sent_at = Rt.now t.inner; body = payload })

  let multicast t ~src ~dsts payload =
    account_send t ~src ~dsts payload;
    Rt.multicast t.inner ~src ~dsts (Tapped { sent_at = Rt.now t.inner; body = payload })

  let after_node t node span f = Rt.after_node t.inner node span (timer t node f)
  let after_node_ t node span f = Rt.after_node_ t.inner node span (timer t node f)
  let at_node_ t node span f = Rt.at_node_ t.inner node span (timer t node f)
  let on_recover t node f = Rt.on_recover t.inner node (timer t node f)
  let rng_node t node = Rt.rng_node t.inner node
  let trace t ev = Rt.trace t.inner ev
  let count ?by t name = Rt.count ?by t.inner name
  let observe t name v = Rt.observe t.inner name v
end

let wrap inner = { inner; nodes = Array.init (Rt.n_nodes inner) (fun _ -> new_node ()); wall_ns = 0 }
let rt t = Rt.Rt ((module Tapped_rt), t)

let app_timer t node span f =
  Rt.after_node_ t.inner node span (fun () ->
      let ns = t.nodes.(node) in
      ns.events <- ns.events + 1;
      with_span ns k_sender f)

let lwg_send t node f = with_span t.nodes.(node) k_send f
let upcall t node f = with_span t.nodes.(node) k_upcall f

let run_span t f =
  let t0 = clock () in
  f ();
  t.wall_ns <- t.wall_ns + (clock () - t0)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let reset t =
  t.wall_ns <- 0;
  Array.iter
    (fun ns ->
      if ns.depth <> 0 then failwith "tap: reset inside a span";
      List.iter (fun a -> Array.fill a 0 (Array.length a) 0) [ ns.self_ns; ns.calls; ns.msgs; ns.words; ns.transit ];
      ns.top_ns <- 0;
      ns.tap_ns <- 0;
      ns.events <- 0;
      ns.segs <- 0;
      ns.acks <- 0;
      ns.retx <- 0;
      ns.datagrams <- 0;
      Ivec.clear ns.rtts)
    t.nodes

type summary = {
  wall_s : float;
  span_s : float;
  events : int;
  layer_us : (string * float) list;
  kind_us : (string * float) list;
  tap_s : float;
  msgs : (string * int) list;
  words : (string * int) list;
  segs : int;
  acks : int;
  retransmits : int;
  datagrams : int;
  transit_p99_us : float;
  naming_rtt_p50_us : float;
}

let summary t =
  let sum f = Array.fold_left (fun acc ns -> acc + f ns) 0 t.nodes in
  let per_kind f = Array.init n_kinds (fun k -> sum (fun ns -> (f ns).(k))) in
  let self = per_kind (fun ns -> ns.self_ns) in
  let msgs = per_kind (fun ns -> ns.msgs) and words = per_kind (fun ns -> ns.words) in
  let transit = Array.init transit_slots (fun v -> sum (fun ns -> ns.transit.(v))) in
  let rtts =
    let a = Array.make (sum (fun ns -> Ivec.length ns.rtts)) 0 in
    ignore (Array.fold_left (fun pos ns -> Ivec.append_to ns.rtts a pos) 0 t.nodes);
    Array.sort Int.compare a;
    a
  in
  let named a = Array.to_list (Array.mapi (fun k v -> (kind_names.(k), v)) a) in
  {
    wall_s = float_of_int t.wall_ns *. 1e-9;
    span_s = float_of_int (sum (fun ns -> ns.top_ns)) *. 1e-9;
    events = sum (fun ns -> ns.events);
    layer_us =
      List.map (fun (name, kinds) -> (name, float_of_int (List.fold_left (fun acc k -> acc + self.(k)) 0 kinds) *. 1e-3)) layers;
    kind_us = named (Array.map (fun ns -> float_of_int ns *. 1e-3) self);
    tap_s = float_of_int (sum (fun ns -> ns.tap_ns)) *. 1e-9;
    msgs = named msgs;
    words = named words;
    segs = sum (fun ns -> ns.segs);
    acks = sum (fun ns -> ns.acks);
    retransmits = sum (fun ns -> ns.retx);
    datagrams = sum (fun ns -> ns.datagrams);
    transit_p99_us = Stats.hist_percentile 0.99 transit ~overflow:0;
    naming_rtt_p50_us = Stats.grouped_percentile 0.5 rtts;
  }

let spans_json t =
  Jsonw.List
    (Array.to_list
       (Array.mapi
          (fun node ns ->
            Jsonw.Obj
              [
                ("node", Jsonw.Int node);
                ( "kinds",
                  Jsonw.Obj
                    (List.filter_map
                       (fun k ->
                         if ns.calls.(k) = 0 && ns.msgs.(k) = 0 then None
                         else
                           Some
                             ( kind_names.(k),
                               Jsonw.Obj
                                 [
                                   ("spans", Jsonw.Int ns.calls.(k));
                                   ("self_us", Jsonw.Num (float_of_int ns.self_ns.(k) *. 1e-3));
                                   ("msgs", Jsonw.Int ns.msgs.(k));
                                   ("words", Jsonw.Int ns.words.(k));
                                 ] ))
                       (List.init n_kinds Fun.id)) );
                ("top_us", Jsonw.Num (float_of_int ns.top_ns *. 1e-3));
                ("tap_us", Jsonw.Num (float_of_int ns.tap_ns *. 1e-3));
              ])
          t.nodes))
