open Plwg_sim
module Rt = Plwg_runtime.Rt
module Sim_rt = Plwg_runtime.Sim_rt
module Domains_rt = Plwg_runtime_domains.Domains_rt
module Stack = Plwg_harness.Stack
module Service = Plwg.Service
module Hwg = Plwg_vsync.Hwg
module Recorder = Plwg_vsync.Recorder
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector
module Server = Plwg_naming.Server
module Db = Plwg_naming.Db
module Rng = Plwg_util.Rng
open Plwg_vsync.Types

(* The application message: enough to check order, membership and
   completeness at the receiver, and to time the send from when it was
   due. *)
type Payload.t += Lb of { lwg : int; sender : Node_id.t; seq : int; due_at : Time.t }

let () =
  Payload.register_printer (function
    | Lb { lwg; sender; seq; _ } -> Some (Printf.sprintf "lb(l%d,n%d,#%d)" lwg sender seq)
    | _ -> None)

type shape =
  | Steady of { window : Time.span; clusters_per_s : float }
      (** each cluster: set up, settle, measure [window] of virtual time *)
  | Heal of { heals_per_s : float }  (** partition/heal cycles *)

type spec = {
  name : string;
  n_app : int;
  n_servers : int;
  n_lwgs : int;
  rate_hz : int;
  n_domains : int;
  shape : shape;
}

(* 16 app nodes: at 32 nodes / 256 LWGs the stack does not finish
   forming its groups in bounded time (see NOTES.md). *)
let steady =
  {
    name = "steady";
    n_app = 16;
    n_servers = 2;
    n_lwgs = 128;
    rate_hz = 50;
    n_domains = 0;
    shape = Steady { window = Time.sec 3; clusters_per_s = 2. };
  }

let steady_domains2 = { steady with name = "steady-domains2"; n_domains = 2 }

let heal =
  { name = "heal"; n_app = 8; n_servers = 2; n_lwgs = 16; rate_hz = 20; n_domains = 0; shape = Heal { heals_per_s = 10. } }

let all = [ steady; steady_domains2; heal ]
let lwg_base = 5_000_000
let setup_step = Time.ms 100

(* LWGs form in about 2.5 virtual s; one that has not converged by
   this deadline is left unformed (and its sends fail). *)
let setup_deadline = Time.sec 5
let drain = Time.sec 2

(* The share rule's consolidation still switches LWGs between HWGs in
   the first seconds after the senders start; measured from 6 s on, a
   cluster's data path is in its steady state. *)
let settle = Time.sec 6

(* heal cycle *)
let partition_span = Time.sec 1
let heal_deadline = Time.sec 5
let heal_poll = Time.ms 10
let heal_quiet = Time.sec 2
let heal_wire_budget = 30_000
let heal_alloc_budget = 1e8
let heals_per_cluster = 2

(* Sends due this long before a failed cluster is discarded must have
   completed; later ones are cut off, not failed. *)
let cutoff_grace = Time.sec 1

let clock_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Generated inputs                                                    *)
(* ------------------------------------------------------------------ *)

type group = {
  gid : Gid.t;
  members : Node_id.t list;
  mask : int;
  sender : Node_id.t;
  phase : Time.span;  (* first send, after the senders start *)
  joins : (Node_id.t * Time.span) list;  (* when each member joins, after creation *)
}

let mask_of nodes = List.fold_left (fun acc n -> acc lor (1 lsl n)) 0 nodes

(* LWG [l] is the window of 4 consecutive app nodes starting at
   [l mod n_app] on the ring, so windows overlap and every window is
   shared by several LWGs for the share rule to consolidate.  The
   seeded inputs: which member sends, the send phase, and when each
   member joins (within the first 200 ms, as independent applications
   would). *)
let gen_groups spec ~seed =
  let rng = Rng.create ~seed in
  let period = 1_000_000 / spec.rate_hz in
  Array.init spec.n_lwgs (fun l ->
      let start = l mod spec.n_app in
      let members = List.sort Int.compare (List.init 4 (fun k -> (start + k) mod spec.n_app)) in
      let sender = List.nth members (Rng.int rng 4) in
      let phase = 1 + Rng.int rng period in
      let joins = List.map (fun m -> (m, 1 + Rng.int rng (Time.ms 200))) members in
      { gid = { Gid.seq = lwg_base + l; origin = 0 }; members; mask = mask_of members; sender; phase; joins })

(* Cluster [i] of a run draws its inputs (senders, send phases) from
   [--seed], and its environment (link jitter, protocol timers) from a
   fixed seed: runs at different [--seed] then see the same sequence of
   environments, and differ by their inputs only.  Without this, the
   stack's seed-to-seed variation would swamp every comparison between
   runs. *)
let env_seed i = 1000 + i
let input_seed ~seed i = (seed * 1000) + i

(* ------------------------------------------------------------------ *)
(* A cluster                                                           *)
(* ------------------------------------------------------------------ *)

(* Receiver state, written only on the receiver's executor. *)
type recv = {
  last : int array;  (* per LWG: last seq delivered *)
  got : Ivec.t array;  (* per LWG: seq -> 1 once delivered *)
  lat : Ivec.t;  (* virtual µs from due to delivery *)
  mutable delivered : int;
  mutable n_errors : int;
  mutable bad : string list;  (* first check violations, newest first *)
  view_at : int array;  (* per LWG: virtual time of the latest view *)
  mutable views : int;
}

(* Sender state of one LWG, written only on its sender's executor. *)
type sendst = { mutable seq : int; mutable refused : int; expect : Ivec.t; due : Ivec.t }
type backend = Sim of Sim_rt.t | Dom of Domains_rt.t

(* What a cluster's data phases add up to. *)
type dpath = {
  mutable wall : float;
  mutable deliv : int;
  mutable wire : int;
  mutable minor : float;
}

let new_dpath () = { wall = 0.; deliv = 0; wire = 0; minor = 0. }

type cluster = {
  spec : spec;
  backend : backend;
  raw : Rt.t;
  tap : Tap.t option;
  parts : Stack.parts;
  groups : group array;
  recv : recv array;
  sends : sendst array;
  changes : int array;  (* detector status changes, per node *)
  mutable dp : dpath;  (* all of the cluster's measured data phases *)
  base_live : int;  (* live heap words before the cluster was built *)
  period : Time.span;
  mutable gen : int;  (* sender chains of older generations stop *)
  mutable cut_log : (Time.t * Time.t * Node_id.t list list) list;  (* partitions: from, healed at, sides *)
}

let error r msg =
  r.n_errors <- r.n_errors + 1;
  if r.n_errors <= 5 then r.bad <- msg :: r.bad

let deliver groups r ~now ~node gid payload =
  match payload with
  | Lb { lwg; sender; seq; due_at } ->
      if lwg < 0 || lwg >= Array.length groups then error r (Printf.sprintf "n%d: delivery of unknown LWG %d" node lwg)
      else
        let g = groups.(lwg) in
        if not (Gid.equal gid g.gid) then error r (Printf.sprintf "n%d: l%d message delivered on another LWG" node lwg)
        else if g.mask land (1 lsl node) = 0 then error r (Printf.sprintf "n%d: not a member of l%d, got #%d" node lwg seq)
        else if sender <> g.sender then error r (Printf.sprintf "n%d: l%d message from non-sender n%d" node lwg sender)
        else if seq <= r.last.(lwg) then
          error r
            (Printf.sprintf "n%d: l%d #%d after #%d (%s)" node lwg seq r.last.(lwg)
               (if Ivec.get r.got.(lwg) seq = 1 then "duplicate" else "out of FIFO order"))
        else begin
          r.last.(lwg) <- seq;
          Ivec.set r.got.(lwg) seq 1;
          Ivec.push r.lat (now - due_at);
          r.delivered <- r.delivered + 1
        end
  | _ -> error r (Printf.sprintf "n%d: unexpected payload %s" node (Payload.to_string payload))

let create_cluster spec ~seed ~groups ~traced ~base_live =
  let n_nodes = spec.n_app + spec.n_servers in
  let backend =
    if spec.n_domains = 0 then Sim (Sim_rt.create ~model:Model.default ~seed ~n_nodes ())
    else Dom (Domains_rt.create ~model:Model.default ~n_domains:spec.n_domains ~seed ~n_nodes ())
  in
  let raw = match backend with Sim e -> Sim_rt.rt e | Dom d -> Domains_rt.rt d in
  let tap = if traced then Some (Tap.wrap raw) else None in
  let recv =
    Array.init spec.n_app (fun _ ->
        {
          last = Array.make spec.n_lwgs 0;
          got = Array.init spec.n_lwgs (fun _ -> Ivec.create ());
          lat = Ivec.create ();
          delivered = 0;
          n_errors = 0;
          bad = [];
          view_at = Array.make spec.n_lwgs 0;
          views = 0;
        })
  in
  let callbacks node =
    let r = recv.(node) in
    let on_data gid ~src:_ payload =
      let now = Rt.now raw in
      match tap with
      | Some tap -> Tap.upcall tap node (fun () -> deliver groups r ~now ~node gid payload)
      | None -> deliver groups r ~now ~node gid payload
    in
    let on_view gid _view =
      let l = gid.Gid.seq - lwg_base in
      if l >= 0 && l < spec.n_lwgs then begin
        r.view_at.(l) <- Rt.now raw;
        r.views <- r.views + 1
      end
    in
    { Service.on_view; on_data }
  in
  let parts = Stack.wire ~callbacks ~mode:Stack.Dynamic ~n_app:spec.n_app (match tap with Some t -> Tap.rt t | None -> raw) in
  let changes = Array.make n_nodes 0 in
  Array.iteri (fun node d -> Detector.on_change d (fun _ _ -> changes.(node) <- changes.(node) + 1)) parts.Stack.p_detectors;
  Array.iter
    (fun g -> List.iter (fun (m, at) -> Rt.after_node_ raw m at (fun () -> Service.join parts.Stack.p_services.(m) g.gid)) g.joins)
    groups;
  {
    spec;
    backend;
    raw;
    tap;
    parts;
    groups;
    recv;
    sends = Array.map (fun _ -> { seq = 0; refused = 0; expect = Ivec.create (); due = Ivec.create () }) groups;
    changes;
    dp = new_dpath ();
    base_live;
    period = 1_000_000 / spec.rate_hz;
    gen = 0;
    cut_log = [];
  }

let run_span c span =
  let go () = match c.backend with Sim e -> Sim_rt.run_span e span | Dom d -> Domains_rt.run_span d span in
  match c.tap with Some tap -> Tap.run_span tap go | None -> go ()

let now c = Rt.now c.raw
let wire_sent c = match c.backend with Sim e -> (Sim_rt.stats e).Sim_rt.sent | Dom d -> (Domains_rt.stats d).Domains_rt.sent

let wire_dropped c =
  match c.backend with
  | Sim e ->
      let s = Sim_rt.stats e in
      s.Sim_rt.wire_dropped + s.Sim_rt.unreachable_dropped
  | Dom d -> (Domains_rt.stats d).Domains_rt.wire_dropped

let delivered c = Array.fold_left (fun acc r -> acc + r.delivered) 0 c.recv

(* The open-loop sender of LWG [l]: fires every period on the sender's
   executor whatever the stack is doing, and records which members the
   message is owed to — the sender's view at send time, or the sender
   alone while it has none. *)
let rec fire c l gen () =
  if gen = c.gen then begin
    let g = c.groups.(l) and st = c.sends.(l) in
    let svc = c.parts.Stack.p_services.(g.sender) in
    let due = Rt.now c.raw in
    st.seq <- st.seq + 1;
    let seq = st.seq in
    let owed = match Service.view_of svc g.gid with Some v -> mask_of v.View.members | None -> 1 lsl g.sender in
    Ivec.set st.expect seq owed;
    Ivec.set st.due seq due;
    let msg = Lb { lwg = l; sender = g.sender; seq; due_at = due } in
    (* A sender the service no longer counts as a member is refused; the
       send is then owed (at least) to the sender and fails. *)
    let send () = try Service.send svc g.gid msg with Invalid_argument _ -> st.refused <- st.refused + 1 in
    (match c.tap with Some tap -> Tap.lwg_send tap g.sender send | None -> send ());
    schedule c l gen c.period
  end

and schedule c l gen span =
  let sender = c.groups.(l).sender in
  match c.tap with
  | Some tap -> Tap.app_timer tap sender span (fire c l gen)
  | None -> Rt.after_node_ c.raw sender span (fire c l gen)

(* Between backend runs only: the generation is read on the senders'
   executors. *)
let start_senders c =
  c.gen <- c.gen + 1;
  Array.iteri (fun l g -> schedule c l c.gen g.phase) c.groups

let pause_senders c = c.gen <- c.gen + 1

(* Every member holds the same view, listing exactly the LWG's members,
   and maps it onto the same HWG. *)
let converged c l =
  let g = c.groups.(l) in
  let svc m = c.parts.Stack.p_services.(m) in
  let first = List.hd g.members in
  match Service.view_of (svc first) g.gid with
  | None -> false
  | Some v0 ->
      List.equal Int.equal v0.View.members g.members
      &&
      let map0 = Service.mapping_of (svc first) g.gid in
      List.for_all
        (fun m ->
          match Service.view_of (svc m) g.gid with
          | Some v -> View_id.equal v.View.id v0.View.id && Option.equal Gid.equal (Service.mapping_of (svc m) g.gid) map0
          | None -> false)
        g.members

(* When a converged LWG got there: its members' last view install. *)
let converged_at c l = List.fold_left (fun acc m -> max acc c.recv.(m).view_at.(l)) 0 c.groups.(l).members

(* ------------------------------------------------------------------ *)
(* Accumulated results                                                 *)
(* ------------------------------------------------------------------ *)

type agg = Sum | Max | Med

type acc = {
  mutable setups : float list;
  mutable dps : dpath list;  (* per cluster, newest first *)
  mutable heaps : int list;  (* per cluster live heap growth, words *)
  mutable samples : int array list;  (* latency, virtual µs *)
  mutable recon : int list;  (* virtual µs, successful reconciles (formations on steady) *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable vs_violations : string list;  (* first findings of the recorder's checks *)
  mutable layer : (string * agg * float) list list;  (* per traced cluster *)
  mutable digest : string list;
  mutable notes : Jsonw.t list;  (* per cluster *)
  mutable spans : Jsonw.t list;  (* per traced cluster *)
}

let new_acc () =
  {
    setups = [];
    dps = [];
    heaps = [];
    samples = [];
    recon = [];
    attempted = 0;
    failed = 0;
    errors = [];
    vs_violations = [];
    layer = [];
    digest = [];
    notes = [];
    spans = [];
  }

let setup spec ~seed ~groups ~traced acc =
  (* start every cluster from a compacted heap, so that the heap metric
     reflects this cluster and not the garbage of the last one *)
  Gc.compact ();
  let base_live = (Gc.stat ()).Gc.live_words in
  let t0 = clock_s () in
  let c = create_cluster spec ~seed ~groups ~traced ~base_live in
  let formed = Array.make spec.n_lwgs (-1) in
  let rec loop () =
    Array.iteri (fun l f -> if f < 0 && converged c l then formed.(l) <- converged_at c l) formed;
    if Array.exists (fun f -> f < 0) formed && now c < setup_deadline then begin
      run_span c setup_step;
      loop ()
    end
  in
  loop ();
  acc.setups <- (clock_s () -. t0) :: acc.setups;
  (c, formed)

(* Counters the layers expose publicly, read at window edges. *)
type edge = { e_sent : int; e_dropped : int; e_views : int; e_changes : int; e_switches : int; e_merges : int; e_installs : int }

let hwg_installs c =
  List.fold_left
    (fun n (_, ev) -> match ev with Hwg.Installed _ -> n + 1 | Hwg.Delivered _ | Hwg.Left _ -> n)
    0
    (Recorder.events c.parts.Stack.p_hwg_recorder)

let edge c ~traced =
  let services = c.parts.Stack.p_services in
  {
    e_sent = wire_sent c;
    e_dropped = wire_dropped c;
    e_views = Array.fold_left (fun acc r -> acc + r.views) 0 c.recv;
    e_changes = Array.fold_left ( + ) 0 c.changes;
    e_switches = Array.fold_left (fun acc s -> acc + Service.switch_count s) 0 services;
    e_merges = Array.fold_left (fun acc s -> acc + Service.merge_count s) 0 services;
    e_installs = (if traced then hwg_installs c else 0);
  }

let layer_metrics c (e0 : edge) (e1 : edge) (s : Tap.summary) =
  let n_domains = float_of_int (max 1 c.spec.n_domains) in
  let us name = try List.assoc name s.Tap.layer_us with Not_found -> 0. in
  let msgs name = try float_of_int (List.assoc name s.Tap.msgs) with Not_found -> 0. in
  let words name = try float_of_int (List.assoc name s.Tap.words) with Not_found -> 0. in
  let services = c.parts.Stack.p_services in
  let store_peak =
    Array.fold_left
      (fun acc svc ->
        let h = Service.hwg_service svc in
        List.fold_left (fun acc g -> max acc (Hwg.store_peak h g)) acc (Hwg.groups h))
      0 services
  in
  let hwgs_in_use =
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun g ->
        List.iter
          (fun m ->
            match Service.mapping_of services.(m) g.gid with Some h -> Hashtbl.replace seen (Gid.code h) () | None -> ())
          g.members)
      c.groups;
    Hashtbl.length seen
  in
  let in_flight_peak =
    List.fold_left
      (fun acc n -> max acc (Transport.in_flight_peak (Transport.endpoint c.parts.Stack.p_transport n)))
      0
      (List.init (c.spec.n_app + c.spec.n_servers) Fun.id)
  in
  let db_entries = List.fold_left (fun acc s -> max acc (Db.size (Server.db s))) 0 c.parts.Stack.p_ns_servers in
  let vsync_kinds = [ "vsync.data"; "vsync.stable"; "vsync.flush"; "vsync.announce" ] in
  let layer_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. s.Tap.layer_us in
  let kind_us name = try List.assoc name s.Tap.kind_us with Not_found -> 0. in
  let f = float_of_int in
  [
    ("runtime.wall_s", Sum, s.Tap.wall_s);
    ("runtime.span_s", Sum, s.Tap.span_s);
    ("runtime.slots_s", Sum, s.Tap.wall_s *. n_domains);
    ("runtime.events", Sum, f s.Tap.events);
    ("runtime.transit_p99_us", Med, s.Tap.transit_p99_us);
    ("runtime.wire_msgs", Sum, f (e1.e_sent - e0.e_sent));
    ("runtime.dropped", Sum, f (e1.e_dropped - e0.e_dropped));
    ("transport.segs", Sum, f s.Tap.segs);
    ("transport.acks", Sum, f s.Tap.acks);
    ("transport.retransmits", Sum, f s.Tap.retransmits);
    ("transport.datagrams", Sum, f s.Tap.datagrams);
    ("transport.busy_us", Sum, us "transport");
    ("transport.in_flight_peak", Max, f in_flight_peak);
    ("detector.heartbeats", Sum, msgs "detector.heartbeat");
    ("detector.busy_us", Sum, us "detector");
    ("detector.status_changes", Sum, f (e1.e_changes - e0.e_changes));
    ("vsync.data_msgs", Sum, msgs "vsync.data");
    ("vsync.stable_msgs", Sum, msgs "vsync.stable");
    ("vsync.data_busy_us", Sum, us "vsync.data");
    ("vsync.msgs", Sum, List.fold_left (fun acc k -> acc +. msgs k) 0. vsync_kinds);
    ("vsync.words", Sum, List.fold_left (fun acc k -> acc +. words k) 0. vsync_kinds);
    ("vsync.store_peak", Max, f store_peak);
    ("vsync.flush_msgs", Sum, msgs "vsync.flush");
    ("vsync.announce_msgs", Sum, msgs "vsync.announce");
    ("vsync.ctrl_busy_us", Sum, us "vsync.ctrl");
    ("vsync.views_installed", Sum, f (e1.e_installs - e0.e_installs));
    ("naming.requests", Sum, msgs "naming.request");
    ("naming.gossip_msgs", Sum, msgs "naming.gossip");
    ("naming.gossip_words", Sum, words "naming.gossip");
    ("naming.mm_callbacks", Sum, msgs "naming.mm");
    ("naming.busy_us", Sum, us "naming");
    ("naming.rtt_p50_us", Med, s.Tap.naming_rtt_p50_us);
    ("naming.db_entries", Max, f db_entries);
    ("lwg.send_us", Sum, kind_us "lwg.send");
    ("lwg.data_msgs", Sum, msgs "lwg.data");
    ("lwg.ctrl_msgs", Sum, msgs "lwg.ctrl");
    ("lwg.gossip_words", Sum, words "lwg.gossip");
    ("lwg.busy_us", Sum, us "lwg");
    ("lwg.hwgs_in_use", Max, f hwgs_in_use);
    ("lwg.switches", Sum, f (e1.e_switches - e0.e_switches));
    ("lwg.merges", Sum, f (e1.e_merges - e0.e_merges));
    ("lwg.views_installed", Sum, f (e1.e_views - e0.e_views));
    ("app.upcall_us", Sum, kind_us "app.upcall");
    ("app.busy_us", Sum, us "app");
    ("timer.silent_us", Sum, us "timer.silent");
    ("other.busy_us", Sum, us "other");
    ("other.msgs", Sum, msgs "other");
    ("tap.overhead_s", Sum, s.Tap.tap_s);
    (* the spans must account for every nanosecond inside them *)
    ("tap.accounting_gap_us", Sum, (s.Tap.span_s *. 1e6) -. layer_sum -. (s.Tap.tap_s *. 1e6));
  ]

(* Close the per-layer window of a traced cluster. *)
let close_window c acc e0 =
  match c.tap with
  | None -> ()
  | Some tap ->
      acc.layer <- layer_metrics c e0 (edge c ~traced:true) (Tap.summary tap) :: acc.layer;
      acc.spans <- Tap.spans_json tap :: acc.spans

let open_window c =
  (match c.tap with Some tap -> Tap.reset tap | None -> ());
  edge c ~traced:(Option.is_some c.tap)

(* A partition may legally keep a message from the members it cuts
   off: a send due while a cut is up, or within [cutoff_grace] before
   it, is owed only to the sender's side. *)
let owed_across_cuts c ~sender ~due owed =
  List.fold_left
    (fun owed (from, healed, sides) ->
      if due >= from - cutoff_grace && due < healed then
        match List.find_opt (List.mem sender) sides with Some side -> owed land mask_of side | None -> owed
      else owed)
    owed c.cut_log

(* Score every send due by [cutoff] against the receivers it was owed
   to, collect the checks' findings and the latency samples. *)
let evaluate c ~cutoff acc =
  let failing = ref [] in
  Array.iteri
    (fun l g ->
      let st = c.sends.(l) in
      let failed_here = ref 0 and first = ref 0 in
      for seq = 1 to st.seq do
        if Ivec.get st.due seq <= cutoff then begin
          acc.attempted <- acc.attempted + 1;
          let owed = owed_across_cuts c ~sender:g.sender ~due:(Ivec.get st.due seq) (Ivec.get st.expect seq) in
          let missing = ref false in
          for m = 0 to c.spec.n_app - 1 do
            if owed land (1 lsl m) <> 0 && Ivec.get c.recv.(m).got.(l) seq = 0 then missing := true
          done;
          if !missing then begin
            acc.failed <- acc.failed + 1;
            incr failed_here;
            if !first = 0 then first := seq
          end
        end
      done;
      if !failed_here > 0 then
        failing :=
          Jsonw.Obj
            [
              ("lwg", Jsonw.Int l);
              ("members", Jsonw.List (List.map (fun m -> Jsonw.Int m) g.members));
              ("sender", Jsonw.Int g.sender);
              ("sent", Jsonw.Int st.seq);
              ("failed", Jsonw.Int !failed_here);
              ("refused", Jsonw.Int st.refused);
              ("first_failed_seq", Jsonw.Int !first);
            ]
          :: !failing)
    c.groups;
  Array.iter (fun r -> acc.errors <- acc.errors @ List.rev r.bad) c.recv;
  let lat = Array.concat (Array.to_list (Array.map (fun r -> Ivec.to_array r.lat) c.recv)) in
  acc.samples <- lat :: acc.samples;
  let sorted = Array.copy lat in
  Array.sort Int.compare sorted;
  acc.digest <-
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (string_of_int (wire_sent c)
            :: Array.to_list (Array.map (fun r -> string_of_int r.delivered) c.recv)
            @ Array.to_list (Array.map string_of_int sorted))))
    :: acc.digest;
  List.rev !failing

(* ------------------------------------------------------------------ *)
(* Steady workloads                                                    *)
(* ------------------------------------------------------------------ *)

(* One measured stretch of the data path: deliveries, wall time, wire
   messages and allocation. *)
let data_phase c span =
  let w0 = clock_s () and d0 = delivered c and sent0 = wire_sent c in
  let minor0 = (Gc.quick_stat ()).Gc.minor_words in
  run_span c span;
  let dp = c.dp in
  dp.wall <- dp.wall +. (clock_s () -. w0);
  dp.deliv <- dp.deliv + (delivered c - d0);
  dp.wire <- dp.wire + (wire_sent c - sent0);
  dp.minor <- dp.minor +. ((Gc.quick_stat ()).Gc.minor_words -. minor0)

(* The heap the cluster holds at the end of its measured phases: live
   words after a full collection, over what was live before it was
   built.  Deterministic for a seed on the sim, unlike the heap size,
   which follows the collector's pacing. *)
let live_growth c =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words - c.base_live

let goodput_of_dp dp = float_of_int dp.deliv /. dp.wall
let per_delivery dp x = x /. float_of_int (max 1 dp.deliv)

(* Per-cluster data-path figures, for the results file. *)
let cluster_figures c ~live =
  [
    ("goodput", Jsonw.Num (goodput_of_dp c.dp));
    ("alloc_words_per_delivery", Jsonw.Num (per_delivery c.dp c.dp.minor));
    ("wire_msgs_per_delivery", Jsonw.Num (per_delivery c.dp (float_of_int c.dp.wire)));
    ("live_heap_mb", Jsonw.Num (float_of_int (live * (Sys.word_size / 8)) /. 1e6));
  ]

let steady_cluster spec ~window ~seed ~groups ~traced acc =
  let c, formed = setup spec ~seed ~groups ~traced acc in
  let unformed = Array.fold_left (fun n f -> if f < 0 then n + 1 else n) 0 formed in
  Array.iter (fun f -> if f >= 0 then acc.recon <- f :: acc.recon) formed;
  start_senders c;
  (* let the share rule's consolidation play out before measuring *)
  run_span c settle;
  let e0 = open_window c in
  data_phase c window;
  acc.dps <- c.dp :: acc.dps;
  let live = live_growth c in
  acc.heaps <- live :: acc.heaps;
  close_window c acc e0;
  pause_senders c;
  run_span c drain;
  let failing = evaluate c ~cutoff:max_int acc in
  acc.notes <-
    Jsonw.Obj
      ([
        ("seed", Jsonw.Int seed);
        ("setup_s", Jsonw.Num (List.hd acc.setups));
        ("unformed_lwgs", Jsonw.Int unformed);
        ("failing_lwgs", Jsonw.List failing);
      ]
      @ cluster_figures c ~live)
    :: acc.notes

(* ------------------------------------------------------------------ *)
(* Heal workload                                                       *)
(* ------------------------------------------------------------------ *)

(* Two cuts, alternated: odd/even app nodes, then the two halves; the
   first naming replica joins the first side, the second the other. *)
let cuts spec =
  let apps = List.init spec.n_app Fun.id and s0 = spec.n_app and s1 = spec.n_app + 1 in
  let side p = List.filter p apps in
  [|
    [ side (fun n -> n mod 2 = 0) @ [ s0 ]; side (fun n -> n mod 2 = 1) @ [ s1 ] ];
    [ side (fun n -> n < spec.n_app / 2) @ [ s0 ]; side (fun n -> n >= spec.n_app / 2) @ [ s1 ] ];
  |]

let sim_of c = match c.backend with Sim e -> e | Dom _ -> invalid_arg "heal: partitions need the sim backend"

let finish_cluster c ~cutoff ~healthy ~heals acc e0 =
  close_window c acc e0;
  (* a heal cluster's data phases together are one measured interval *)
  let live = live_growth c in
  acc.heaps <- live :: acc.heaps;
  pause_senders c;
  if healthy then run_span c drain;
  let failing = evaluate c ~cutoff acc in
  (* The full virtual-synchrony checks: affordable at this traffic. *)
  let violations = Recorder.check_all c.parts.Stack.p_recorder in
  (* Each LWG whose views broke virtual synchrony in this cluster counts
     as one more failed operation; the findings go to the results. *)
  let broken =
    Array.to_list c.groups
    |> List.filter (fun g ->
           let name = Gid.to_string g.gid in
           List.exists (fun v -> Text.contains v name) violations)
  in
  acc.attempted <- acc.attempted + List.length broken;
  acc.failed <- acc.failed + List.length broken;
  acc.vs_violations <- acc.vs_violations @ List.filteri (fun i _ -> i < 5) violations;
  acc.notes <-
    Jsonw.Obj
      ([
        ("heals", Jsonw.Int heals);
        ("ended", Jsonw.Str (if healthy then "end of run" else "failed reconcile"));
        ("vs_violations", Jsonw.Int (List.length violations));
        ("failing_lwgs", Jsonw.List failing);
      ]
      @ [ ("live_heap_mb", Jsonw.Num (float_of_int (live * (Sys.word_size / 8)) /. 1e6)) ])
    :: acc.notes

(* A data phase of the heal workload, guarded like a reconcile: a
   cluster that starts storming between heals ends, and the phase is
   not measured. *)
let guarded_phase c span =
  c.dp <- new_dpath ();
  let minor0 = Gc.minor_words () in
  let rec go left =
    if left <= 0 then true
    else if Gc.minor_words () -. minor0 > heal_alloc_budget then false
    else begin
      data_phase c (min left heal_poll);
      go (left - heal_poll)
    end
  in
  go span

(* Partition, heal, time each split LWG's reconcile, and (on success)
   let the data path run again; [false] ends the cluster. *)
let heal_cycle c acc ~h ~cut =
  let sim = sim_of c in
  let n_lwgs = Array.length c.groups in
  let split l = List.length (List.filter (fun side -> List.exists (fun m -> List.mem m side) c.groups.(l).members) cut) > 1 in
  let splits = List.filter split (List.init n_lwgs Fun.id) in
  let t_cut = now c in
  Sim_rt.set_partition sim cut;
  let calm = guarded_phase c partition_span in
  (* the partition phases are the heal workload's measured intervals:
     one per heal, all alike *)
  if calm then acc.dps <- c.dp :: acc.dps;
  (* The senders pause while the LWGs reconcile: the phase is measured
     by its own metrics, and its cost is bounded by the budgets. *)
  pause_senders c;
  let w0 = clock_s () in
  Sim_rt.heal sim;
  let t_heal = now c and sent0 = wire_sent c and minor0 = Gc.minor_words () in
  c.cut_log <- (t_cut, t_heal, cut) :: c.cut_log;
  let pending = ref splits and took = ref [] in
  let poll () =
    pending :=
      List.filter
        (fun l ->
          if converged c l then begin
            acc.recon <- max 0 (converged_at c l - t_heal) :: acc.recon;
            took := (converged_at c l - t_heal) / 1000 :: !took;
            false
          end
          else true)
        !pending
  in
  let within_budget () =
    now c - t_heal < heal_deadline && wire_sent c - sent0 <= heal_wire_budget && Gc.minor_words () -. minor0 <= heal_alloc_budget
  in
  if calm then begin
    poll ();
    while (not (List.is_empty !pending)) && within_budget () do
      run_span c heal_poll;
      poll ()
    done
  end;
  let failed = List.length !pending in
  if calm then begin
    acc.attempted <- acc.attempted + List.length splits;
    acc.failed <- acc.failed + failed
  end;
  acc.notes <-
    Jsonw.Obj
      [
        ("heal", Jsonw.Int h);
        ("cut", Jsonw.Str (if h mod 2 = 0 then "odd-even" else "halves"));
        ("split_lwgs", Jsonw.Int (List.length splits));
        ("storm_before_heal", Jsonw.Bool (not calm));
        ("unreconciled", Jsonw.List (List.map (fun l -> Jsonw.Int l) !pending));
        ("reconciled_ms", Jsonw.List (List.rev_map (fun ms -> Jsonw.Int ms) !took));
        ("wire_since_heal", Jsonw.Int (wire_sent c - sent0));
        ("minor_words_since_heal", Jsonw.Num (Gc.minor_words () -. minor0));
        ("virtual_ms", Jsonw.Num (Time.to_float_ms (now c - t_heal)));
        ("wall_s", Jsonw.Num (clock_s () -. w0));
      ]
    :: acc.notes;
  let ok =
    calm && failed = 0
    && begin
         start_senders c;
         guarded_phase c heal_quiet
       end
  in
  (ok, t_heal)

(* Clusters live for at most [heals_per_cluster] heals, so both the
   first heal of a cluster and a repeated one are exercised while the
   state a cluster accumulates stays bounded; a failed heal ends the
   cluster early and the run goes on with a fresh one. *)
let run_heal spec ~seed ~n_heals ~traced acc =
  let cuts = cuts spec in
  let lives = ref 0 and h = ref 0 in
  while !h < n_heals do
    let c, _ = setup spec ~seed:(env_seed !lives) ~groups:(gen_groups spec ~seed:(input_seed ~seed !lives)) ~traced acc in
    incr lives;
    let e0 = open_window c in
    start_senders c;
    let rec cycles k =
      let ok, t_heal = heal_cycle c acc ~h:!h ~cut:cuts.(!h mod Array.length cuts) in
      incr h;
      if ok && k + 1 < heals_per_cluster && !h < n_heals then cycles (k + 1)
      else if ok then finish_cluster c ~cutoff:max_int ~healthy:true ~heals:(k + 1) acc e0
      else finish_cluster c ~cutoff:(t_heal - cutoff_grace) ~healthy:false ~heals:(k + 1) acc e0
    in
    cycles 0
  done

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let aggregate windows =
  match windows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, agg, _) ->
          let values = List.map (fun w -> match List.find_opt (fun (n, _, _) -> String.equal n name) w with Some (_, _, v) -> v | None -> 0.) windows in
          let v =
            match agg with
            | Sum -> List.fold_left ( +. ) 0. values
            | Max -> List.fold_left Float.max neg_infinity values
            | Med -> (
                (* 0 when no window had a sample *)
                match List.filter Float.is_finite values with [] -> 0. | l -> Stats.median l)
          in
          (name, v))
        first

let units name =
  let ends s = String.length name >= String.length s && String.equal (String.sub name (String.length name - String.length s) (String.length s)) s in
  if ends "_us" then "us"
  else if ends "_s" then "s"
  else if ends "_share" then "ratio"
  else if ends "_words" || ends "words_per_msg" then "words"
  else if ends "goodput" then "1/s"
  else if ends "_ratio" then "ratio"
  else "count"

let per_layer windows ~goodput ~ratio =
  let a = aggregate windows in
  let get n = try List.assoc n a with Not_found -> 0. in
  let hidden = [ "runtime.span_s"; "runtime.slots_s"; "vsync.msgs"; "vsync.words" ] in
  let derived =
    [
      ("runtime.self_s", get "runtime.slots_s" -. get "runtime.span_s");
      ("runtime.busy_share", get "runtime.span_s" /. get "runtime.slots_s");
      ("vsync.words_per_msg", get "vsync.words" /. get "vsync.msgs");
      ("tap.goodput", goodput);
      ("tap.goodput_ratio", ratio);
    ]
  in
  List.filter (fun (n, _) -> not (List.mem n hidden)) a @ derived

let end_to_end acc =
  (* delivery latency percentiles per cluster, then their
     interquartile mean *)
  let lat q =
    Stats.interquartile_mean
      (List.filter_map
         (fun a ->
           let a = Array.copy a in
           Array.sort Int.compare a;
           if Array.length a = 0 then None else Some (Stats.grouped_percentile q a))
         acc.samples)
  in
  let recon =
    (* with no successful reconcile at all, the deadline both phases use *)
    let a = Array.of_list (match acc.recon with [] -> [ heal_deadline ] | l -> l) in
    Array.sort Int.compare a;
    a
  in
  (* data-path ratios: per measured interval, then their interquartile
     mean, robust to the clusters a storm or a broken LWG dominates *)
  let over_intervals f = Stats.interquartile_mean (List.map f acc.dps) in
  [
      ("goodput", over_intervals goodput_of_dp, "1/s");
      ("lat_p50_us", lat 0.5, "us");
      ("lat_p99_us", lat 0.99, "us");
      ("lat_p999_us", lat 0.999, "us");
      ("ok_share", float_of_int (acc.attempted - acc.failed) /. float_of_int (max 1 acc.attempted), "ratio");
      ("reconcile_p50_ms", Stats.grouped_percentile 0.5 recon /. 1e3, "ms");
      ("reconcile_p90_ms", Stats.grouped_percentile 0.9 recon /. 1e3, "ms");
      ("wire_msgs_per_delivery", over_intervals (fun dp -> per_delivery dp (float_of_int dp.wire)), "msgs");
      ("alloc_words_per_delivery", over_intervals (fun dp -> per_delivery dp dp.minor), "words");
      (* the upper quartile: robust to a cluster caught in a storm *)
      ( "heap_peak_mb",
        Stats.nearest_rank 0.75 (List.map (fun w -> float_of_int (w * (Sys.word_size / 8)) /. 1e6) acc.heaps),
        "MB" );
      ("setup_s", Stats.median acc.setups, "s");
    ]

type result = {
  correct : bool;
  errors : string list;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  details : Jsonw.t;
  virtual_digest : string;
}

(* Clusters (steady) or heals (heal) in a run of [seconds]. *)
let size_of spec ~seconds =
  let per_s = match spec.shape with Steady { clusters_per_s; _ } -> clusters_per_s | Heal { heals_per_s } -> heals_per_s in
  max 3 (int_of_float (Float.round (float_of_int seconds *. per_s)))

let execute spec ~seed ~traced ~size =
  let acc = new_acc () in
  (match spec.shape with
  | Steady { window; _ } ->
      for i = 0 to size - 1 do
        steady_cluster spec ~window ~seed:(env_seed i) ~groups:(gen_groups spec ~seed:(input_seed ~seed i)) ~traced acc
      done
  | Heal _ -> run_heal spec ~seed ~n_heals:size ~traced acc);
  (acc, end_to_end acc)

let result_of spec ~seed (acc : acc) metrics =
  let errors = acc.errors in
  let total f = List.fold_left (fun a dp -> a + f dp) 0 acc.dps in
  let window_deliv = total (fun dp -> dp.deliv) in
  let digest = Digest.to_hex (Digest.string (String.concat ";" (List.rev acc.digest))) in
  {
    correct = List.is_empty errors && window_deliv > 0;
    errors = (if window_deliv > 0 then errors else "no LWG delivery in the measured window" :: errors);
    attempted = max 1 acc.attempted;
    failed = acc.failed;
    metrics;
    details =
      Jsonw.Obj
        [
          ("workload", Jsonw.Str spec.name);
          ("seed", Jsonw.Int seed);
          ("n_app", Jsonw.Int spec.n_app);
          ("n_servers", Jsonw.Int spec.n_servers);
          ("n_lwgs", Jsonw.Int spec.n_lwgs);
          ("rate_hz", Jsonw.Int spec.rate_hz);
          ("backend", Jsonw.Str (if spec.n_domains = 0 then "sim" else "domains"));
          ("n_domains", Jsonw.Int (max 1 spec.n_domains));
          ( "model",
            Jsonw.Obj
              [
                ("link_base_us", Jsonw.Int Model.default.Model.link_base);
                ("link_jitter_us", Jsonw.Int Model.default.Model.link_jitter);
                ("drop_prob", Jsonw.Num Model.default.Model.drop_prob);
                ("proc_time_us", Jsonw.Int Model.default.Model.proc_time);
              ] );
          ("setup_s", Jsonw.List (List.rev_map (fun s -> Jsonw.Num s) acc.setups));
          ("window_deliveries", Jsonw.Int window_deliv);
          ("window_wall_s", Jsonw.Num (List.fold_left (fun a dp -> a +. dp.wall) 0. acc.dps));
          ("attempted", Jsonw.Int acc.attempted);
          ("failed", Jsonw.Int acc.failed);
          ("clusters", Jsonw.List (List.rev acc.notes));
          ("spans", Jsonw.List (List.rev acc.spans));
          ("errors", Jsonw.List (List.map (fun e -> Jsonw.Str e) errors));
          ("vs_violations", Jsonw.List (List.map (fun e -> Jsonw.Str e) acc.vs_violations));
          ("virtual_digest", Jsonw.Str digest);
        ];
    virtual_digest = digest;
  }

let traced_metrics acc ~goodput ~ratio = List.map (fun (n, v) -> (n, v, units n)) (per_layer acc.layer ~goodput ~ratio)
let goodput_of (m : (string * float * string) list) = match m with (_, g, _) :: _ -> g | [] -> nan
let first_cluster (acc : acc) = List.nth acc.dps (List.length acc.dps - 1)
let first_digest (acc : acc) = List.nth acc.digest (List.length acc.digest - 1)

let run_size spec ~seed ~size ~traced =
  let acc, e2e = execute spec ~seed ~traced ~size in
  result_of spec ~seed acc (if traced then traced_metrics acc ~goodput:(goodput_of e2e) ~ratio:nan else e2e)

let run spec ~seed ~seconds ~trace =
  let size = size_of spec ~seconds in
  if not trace then
    let acc, e2e = execute spec ~seed ~traced:false ~size in
    result_of spec ~seed acc e2e
  else begin
    (* The first cluster again untraced: the reference for the tracing
       overhead, and proof that the tap changes no virtual-time outcome. *)
    let reference, _ =
      execute spec ~seed ~traced:false ~size:(match spec.shape with Steady _ -> 1 | Heal _ -> heals_per_cluster)
    in
    (* a third of the clusters: per-layer figures are totals, and a
       traced cluster costs about twice an untraced one *)
    let acc, e2e = execute spec ~seed ~traced:true ~size:(max 3 (size / 3)) in
    let ratio = goodput_of_dp (first_cluster acc) /. goodput_of_dp (first_cluster reference) in
    let r = result_of spec ~seed acc (traced_metrics acc ~goodput:(goodput_of e2e) ~ratio) in
    if String.equal (first_digest acc) (first_digest reference) then r
    else { r with correct = false; errors = "traced run diverged from the untraced one in virtual time" :: r.errors }
  end
