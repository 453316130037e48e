open Plwg_sim
module Rt = Plwg_runtime.Rt
open Types
module Transport = Plwg_transport.Transport
module Detector = Plwg_detector.Detector
module Deque = Plwg_util.Deque

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

type Payload.t +=
  | Hw_join_announce of { group : Gid.t; joiner : Node_id.t }
  | Hw_view_announce of { group : Gid.t; view_id : View_id.t; members : Node_id.t list }
  | Hw_change_req of {
      group : Gid.t;
      joiners : Node_id.t list;
      leavers : Node_id.t list;
      foreign : Node_id.t list;
      flush : bool;
    }
  | Hw_stop of { group : Gid.t; epoch : int; coord : Node_id.t; proposal : Node_id.t list }
  | Hw_stop_nack of { group : Gid.t; epoch : int }
  | Hw_flushed of {
      group : Gid.t;
      epoch : int;
      from : Node_id.t;
      prev : View.t option;
      delivered : (Node_id.t * int) list;
      store : app_msg list;
      leaving : bool;
    }
  | Hw_install of { group : Gid.t; epoch : int; view : View.t; sync : app_msg list; you_left : bool }
  | Hw_data of { group : Gid.t; view_id : View_id.t; msg : app_msg }
  | Hw_to_req of { group : Gid.t; view_id : View_id.t; origin : Node_id.t; local_id : int; body : Payload.t }
  | Hw_stable of { group : Gid.t; view_id : View_id.t; from : Node_id.t; delivered : (Node_id.t * int) list }

let () =
  Payload.register_printer (function
    | Hw_join_announce { group; joiner } ->
        Some (Format.asprintf "hw-join(%a,%a)" Gid.pp group Node_id.pp joiner)
    | Hw_view_announce { group; view_id; members } ->
        Some (Format.asprintf "hw-announce(%a,%a,%a)" Gid.pp group View_id.pp view_id Node_id.pp_list members)
    | Hw_change_req { group; _ } -> Some (Format.asprintf "hw-change-req(%a)" Gid.pp group)
    | Hw_stop { group; epoch; coord; _ } ->
        Some (Format.asprintf "hw-stop(%a,e%d,%a)" Gid.pp group epoch Node_id.pp coord)
    | Hw_stop_nack { group; epoch } -> Some (Format.asprintf "hw-stop-nack(%a,e%d)" Gid.pp group epoch)
    | Hw_flushed { group; epoch; from; _ } ->
        Some (Format.asprintf "hw-flushed(%a,e%d,%a)" Gid.pp group epoch Node_id.pp from)
    | Hw_install { group; epoch; view; _ } ->
        Some (Format.asprintf "hw-install(%a,e%d,%a)" Gid.pp group epoch View.pp view)
    | Hw_data { group; view_id; msg } ->
        Some (Format.asprintf "hw-data(%a,%a,%a)" Gid.pp group View_id.pp view_id pp_app_msg msg)
    | Hw_to_req { group; origin; local_id; _ } ->
        Some (Format.asprintf "hw-to-req(%a,%a/#%d)" Gid.pp group Node_id.pp origin local_id)
    | Hw_stable { group; from; _ } -> Some (Format.asprintf "hw-stable(%a,%a)" Gid.pp group Node_id.pp from)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Configuration and callbacks                                         *)
(* ------------------------------------------------------------------ *)

type config = {
  announce_period : Time.span;
  tick_period : Time.span;
  join_timeout : Time.span;
  flush_deadline : Time.span;
  auto_stop_ok : bool;
  stability_period : Time.span;
      (** how often members exchange delivery vectors so stable messages
          can be pruned from the retransmission store; 0 disables *)
}

let default_config =
  {
    announce_period = Time.ms 250;
    tick_period = Time.ms 150;
    join_timeout = Time.ms 500;
    flush_deadline = Time.ms 600;
    auto_stop_ok = true;
    stability_period = Time.ms 500;
  }

type callbacks = {
  on_view : Gid.t -> View.t -> unit;
  on_data : Gid.t -> view_id:View_id.t -> src:Node_id.t -> Payload.t -> unit;
  on_stop : Gid.t -> unit;
}

let no_callbacks = { on_view = (fun _ _ -> ()); on_data = (fun _ ~view_id:_ ~src:_ _ -> ()); on_stop = (fun _ -> ()) }

type event =
  | Installed of { node : Node_id.t; view : View.t }
  | Delivered of { node : Node_id.t; group : Gid.t; view_id : View_id.t; origin : Node_id.t; local_id : int }
  | Left of { node : Node_id.t; group : Gid.t }

(* ------------------------------------------------------------------ *)
(* Per-group state                                                     *)
(* ------------------------------------------------------------------ *)

type flush_info = {
  fi_prev : View.t option;
  fi_delivered : int Node_id.Map.t;
  fi_store : app_msg list; (* reversed: newest first *)
  fi_leaving : bool;
}

type change = {
  ch_epoch : int;
  ch_proposal : Node_id.Set.t;
  ch_started : Time.t;
  mutable ch_flushed : flush_info Node_id.Map.t;
  mutable ch_deadline : Rt.cancel;
}

type status =
  | Joining of { mutable started : Time.t }
  | Normal
  | Stopped of { mutable st_epoch : int; mutable st_coord : Node_id.t; mutable acked : bool; st_since : Time.t }

type gstate = {
  group : Gid.t;
  ordering : ordering;
  mutable status : status;
  mutable view : View.t option;
  mutable epoch : int;
  mutable view_seq : int;
  mutable next_seq : int;
  mutable next_local : int;
  delivered : int array; (* per sender: count delivered in current view; 0 = none *)
  mutable to_delivered : int Node_id.Map.t; (* per origin, across views *)
  mutable to_stamped : int Node_id.Map.t; (* coordinator, per view *)
  (* Retransmission store, one seq-ascending deque per sender: delivery
     appends at the back, stability pruning pops from the front, and
     [store_count] keeps the size O(1).  Flat array indexed by sender —
     the map this replaces allocated a node on every delivery. *)
  store : app_msg Deque.t array;
  mutable store_count : int;
  mutable store_peak : int; (* lifetime high-water mark, across views *)
  stable_floor : int array; (* per sender: all members delivered below this *)
  peer_vec : int array array; (* member -> delivery vector, current view; [||] until first heard *)
  peer_seen : bool array; (* member reported a vector in the current view *)
  mutable frozen : (View_id.t * app_msg) list; (* reversed arrival order *)
  mutable outbox : Payload.t list; (* reversed *)
  to_pending : (int * Payload.t) Deque.t; (* oldest first *)
  mutable joiners : Node_id.Set.t;
  mutable leavers : Node_id.Set.t;
  mutable foreign : (Time.t * Node_id.t) list;
  mutable last_proposal : Node_id.Set.t; (* from the latest accepted STOP: candidates, not leaders *)
  mutable want_flush : bool;
  mutable leaving_self : bool;
  mutable change : change option;
  (* memo of [View.members_set] for the current view, keyed by
     [View_id.code]: [evaluate] runs per tick per group and per
     announce, and rebuilding the member set each time dominated its
     cost.  [-1] = nothing cached. *)
  mutable members_memo_for : int;
  mutable members_memo : Node_id.Set.t;
}

type t = {
  node : Node_id.t;
  rt : Rt.t;
  endpoint : Transport.endpoint;
  detector : Detector.t;
  config : config;
  callbacks : callbacks;
  recorder : (Time.t -> event -> unit) option;
  transport : Transport.t;
  states : gstate Plwg_util.Itbl.t; (* keyed by Gid.code *)
  seq_floor : int Plwg_util.Itbl.t; (* highest view seq seen per Gid.code, across incarnations *)
  mutable gid_counter : int;
}

let node t = t.node

let record t event = match t.recorder with Some r -> r (Rt.now t.rt) event | None -> ()

let lookup t group = Plwg_util.Itbl.find_opt t.states (Gid.code group)

(* Hot-path variant: the per-message handlers below match on
   [exception Not_found] instead of an option, so the hit path — every
   delivered group message — does not allocate a [Some]. *)
let lookup_exn t group = Plwg_util.Itbl.find t.states (Gid.code group)

let delivered_count map sender = match Node_id.Map.find_opt sender map with Some n -> n | None -> 0

let unicast t ~dst payload = Transport.send t.endpoint ~dst payload

let broadcast t payload = Transport.broadcast_raw t.transport ~src:t.node payload

let fresh_gid t =
  t.gid_counter <- t.gid_counter + 1;
  { Gid.seq = t.gid_counter; origin = t.node }

let foreign_ttl = Time.ms 1200

let fresh_foreign t g =
  let now = Rt.now t.rt in
  g.foreign <- List.filter (fun (seen, _) -> Time.diff now seen <= foreign_ttl) g.foreign;
  List.fold_left (fun acc (_, n) -> Node_id.Set.add n acc) Node_id.Set.empty g.foreign

let add_foreign t g nodes =
  let now = Rt.now t.rt in
  let known = List.map snd g.foreign in
  let extra = List.filter (fun n -> (not (Node_id.equal n t.node)) && not (List.mem n known)) nodes in
  (* refresh timestamps of re-announced nodes *)
  g.foreign <-
    List.map (fun (seen, n) -> if List.mem n nodes then (now, n) else (seen, n)) g.foreign
    @ List.map (fun n -> (now, n)) extra

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let frozen_cap = 10_000

let deliver_upcall t g msg ~view_id =
  let upcall =
    match g.ordering with
    | Fifo | Causal -> true
    | Total ->
        (* dedup re-stamped total-order messages across view changes *)
        let seen = delivered_count g.to_delivered msg.origin in
        if msg.local_id >= seen then begin
          g.to_delivered <- Node_id.Map.add msg.origin (msg.local_id + 1) g.to_delivered;
          true
        end
        else false
  in
  if upcall then begin
    if Node_id.equal msg.origin t.node then begin
      (* total-order pending sends complete in FIFO order, so the one
         just delivered is almost always at the front *)
      match Deque.peek_front g.to_pending with
      | Some (id, _) when id = msg.local_id -> ignore (Deque.pop_front g.to_pending)
      | Some _ -> Deque.filter_in_place (fun (id, _) -> id <> msg.local_id) g.to_pending
      | None -> ()
    end;
    record t (Delivered { node = t.node; group = g.group; view_id; origin = msg.origin; local_id = msg.local_id });
    t.callbacks.on_data g.group ~view_id ~src:msg.origin msg.body
  end

let deliver_now t g msg ~view_id =
  g.delivered.(msg.sender) <- msg.seq + 1;
  Deque.push_back g.store.(msg.sender) msg;
  g.store_count <- g.store_count + 1;
  if g.store_count > g.store_peak then g.store_peak <- g.store_count;
  deliver_upcall t g msg ~view_id

(* Flatten the store for the wire (FLUSHED).  Consumers key the bodies
   by (sender, seq); ordering across senders is immaterial. *)
let store_to_list g =
  let acc = ref [] in
  for sender = 0 to Array.length g.store - 1 do
    acc := Deque.fold_left (fun acc msg -> msg :: acc) !acc g.store.(sender)
  done;
  !acc

(* A message is deliverable when it is the sender's next (FIFO) and, in
   causal mode, every delivery its vector clock records has happened
   here too. *)
let deliverable g msg =
  Int.equal msg.seq g.delivered.(msg.sender)
  &&
  match g.ordering with
  | Fifo | Total -> true
  | Causal ->
      List.for_all
        (fun (node, count) -> Node_id.equal node msg.sender || g.delivered.(node) >= count)
        msg.vc

(* Deliver any frozen messages for the current view that are now in
   order. *)
let rec drain_frozen t g =
  match (g.view, g.frozen) with
  | None, _ | _, [] -> ()
  | Some view, _ ->
      let ready, rest =
        List.partition (fun (vid, msg) -> View_id.equal vid view.View.id && deliverable g msg) g.frozen
      in
      if not (List.is_empty ready) then begin
        g.frozen <- rest;
        let ready = List.sort (fun (_, a) (_, b) -> Int.compare a.seq b.seq) ready in
        List.iter (fun (_, msg) -> deliver_now t g msg ~view_id:view.View.id) ready;
        drain_frozen t g
      end

let freeze t g view_id msg =
  ignore t;
  g.frozen <- (view_id, msg) :: g.frozen;
  if List.length g.frozen > frozen_cap then
    g.frozen <- List.filteri (fun i _ -> i < frozen_cap) g.frozen

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

let rec unicast_all t payload = function
  | [] -> ()
  | dst :: rest ->
      unicast t ~dst payload;
      unicast_all t payload rest
[@@zero_alloc_hot]

(* One data block for the whole view: every member's segment carries
   the same immutable payload. *)
let multicast_data t g msg =
  match g.view with
  | None -> ()
  | Some view ->
      unicast_all t
        ((Hw_data { group = g.group; view_id = view.View.id; msg }) [@alloc_ok "the one data block a multicast builds"])
        view.View.members
[@@zero_alloc_hot]

let stamp_and_multicast t g ~origin ~local_id body =
  match g.view with
  | None -> ()
  | Some _ ->
      let seq = g.next_seq in
      g.next_seq <- seq + 1;
      let vc =
        match g.ordering with
        | Causal -> vec_bindings g.delivered
        | Fifo | Total -> []
      in
      multicast_data t g { sender = t.node; seq; origin; local_id; vc; body }

let send_in_view t g body =
  match g.view with
  | None -> g.outbox <- body :: g.outbox
  | Some view -> (
      match g.ordering with
      | Fifo | Causal ->
          let local_id = g.next_local in
          g.next_local <- local_id + 1;
          stamp_and_multicast t g ~origin:t.node ~local_id body
      | Total ->
          let local_id = g.next_local in
          g.next_local <- local_id + 1;
          Deque.push_back g.to_pending (local_id, body);
          let coord = View.coordinator view in
          if Node_id.equal coord t.node then stamp_and_multicast t g ~origin:t.node ~local_id body
          else
            unicast t ~dst:coord
              (Hw_to_req { group = g.group; view_id = view.View.id; origin = t.node; local_id; body }))

let send t group body =
  match lookup_exn t group with
  | exception Not_found -> invalid_arg "Hwg.send: not a member of the group"
  | g -> (
      match g.status with
      | Normal -> send_in_view t g body
      | Joining _ | Stopped _ -> g.outbox <- body :: g.outbox)

let send_if_member t group body =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match (g.status, g.view) with
      | Normal, Some _ -> send_in_view t g body
      | Stopped _, Some _ -> g.outbox <- body :: g.outbox
      | (Normal | Stopped _ | Joining _), _ -> ())

(* ------------------------------------------------------------------ *)
(* View installation                                                   *)
(* ------------------------------------------------------------------ *)

let note_seq t group seq =
  let key = Gid.code group in
  let floor = try Plwg_util.Itbl.find t.seq_floor key with Not_found -> 0 in
  if seq > floor then Plwg_util.Itbl.replace t.seq_floor key seq

let seq_floor_of t group = try Plwg_util.Itbl.find t.seq_floor (Gid.code group) with Not_found -> 0

let reset_for_view t g view =
  note_seq t g.group view.View.id.View_id.seq;
  g.view <- Some view;
  g.status <- Normal;
  g.next_seq <- 0;
  Array.fill g.delivered 0 (Array.length g.delivered) 0;
  g.to_stamped <- Node_id.Map.empty;
  Array.iter Deque.clear g.store;
  g.store_count <- 0;
  Array.fill g.stable_floor 0 (Array.length g.stable_floor) 0;
  Array.fill g.peer_seen 0 (Array.length g.peer_seen) false;
  g.joiners <- Node_id.Set.diff g.joiners (View.members_set view);
  g.leavers <- Node_id.Set.inter g.leavers (View.members_set view);
  g.foreign <- List.filter (fun (_, n) -> not (View.mem n view)) g.foreign;
  g.last_proposal <- Node_id.Set.empty;
  g.view_seq <- max g.view_seq view.View.id.View_id.seq;
  record t (Installed { node = t.node; view });
  Rt.count t.rt "hwg.views_installed";
  Rt.trace t.rt (fun () ->
      Plwg_obs.Event.View_installed
        {
          node = t.node;
          group = Gid.to_string g.group;
          view = Format.asprintf "%a" View_id.pp view.View.id;
          members = view.View.members;
        });
  t.callbacks.on_view g.group view

let after_install_resume t g =
  (* catch up on traffic that raced ahead of the install *)
  drain_frozen t g;
  (* flush application sends buffered during the change *)
  let queued = List.rev g.outbox in
  g.outbox <- [];
  List.iter (fun body -> send_in_view t g body) queued;
  (* total-order mode: re-request messages the old view never delivered *)
  match g.ordering with
  | Fifo | Causal -> ()
  | Total -> (
      match g.view with
      | None -> ()
      | Some view ->
          let coord = View.coordinator view in
          Deque.iter
            (fun (local_id, body) ->
              if Node_id.equal coord t.node then stamp_and_multicast t g ~origin:t.node ~local_id body
              else
                unicast t ~dst:coord
                  (Hw_to_req { group = g.group; view_id = view.View.id; origin = t.node; local_id; body }))
            g.to_pending)

(* Tear down an in-progress change: cancel its deadline timer and close
   the Flush_begin it emitted with a Flush_end carrying [outcome], so
   the trace-level pairing invariant holds on every path. *)
let cancel_change t g change ~outcome =
  change.ch_deadline ();
  g.change <- None;
  Rt.trace t.rt (fun () ->
      Plwg_obs.Event.Flush_end { node = t.node; group = Gid.to_string g.group; epoch = change.ch_epoch; outcome })

let remove_group t g =
  (match g.change with Some change -> cancel_change t g change ~outcome:"left" | None -> ());
  Plwg_util.Itbl.remove t.states (Gid.code g.group);
  record t (Left { node = t.node; group = g.group })

(* ------------------------------------------------------------------ *)
(* The membership protocol                                             *)
(* ------------------------------------------------------------------ *)

(* The functions below are mutually recursive: evaluation can initiate
   a change, whose local Stop loops back into the handler, etc. *)

(* Steady-state fast path for [evaluate]: with no pending joiners,
   leavers, foreign sightings, proposal residue or flush request,
   [desired] below reduces to [{self} union (current inter reachable)],
   which equals the installed membership exactly when every member is
   reachable (or self).  Checking that against the detector's O(1)
   status probe skips the set constructions of the full evaluation on
   every quiet tick. *)
let rec all_reachable t = function
  | [] -> true
  | m :: rest ->
      (Node_id.equal m t.node
      ||
      match Detector.status t.detector m with
      | Detector.Reachable -> true
      | Detector.Unreachable -> false)
      && all_reachable t rest

let steady_no_change t g =
  match g.view with
  | None -> false
  | Some v ->
      (not g.want_flush)
      && Node_id.Set.is_empty g.joiners
      && Node_id.Set.is_empty g.leavers
      && (match g.foreign with [] -> true | _ :: _ -> false)
      && Node_id.Set.is_empty g.last_proposal
      && all_reachable t v.View.members

let rec evaluate t g =
  match g.status with
  | Joining _ -> ()
  | (Normal | Stopped _) when steady_no_change t g -> ()
  | Normal | Stopped _ ->
      let reachable = Detector.reachable_set t.detector in
      let current =
        match g.view with
        | Some v ->
            let vid = View_id.code v.View.id in
            if Int.equal g.members_memo_for vid then g.members_memo
            else begin
              let s = View.members_set v in
              g.members_memo_for <- vid;
              g.members_memo <- s;
              s
            end
        | None -> Node_id.Set.empty
      in
      let candidates =
        Node_id.Set.union current
          (Node_id.Set.union g.joiners (Node_id.Set.union (fresh_foreign t g) g.last_proposal))
      in
      let desired = Node_id.Set.add t.node (Node_id.Set.inter candidates reachable) in
      let pending_leaver = not (Node_id.Set.is_empty (Node_id.Set.inter g.leavers desired)) in
      let membership_changed = not (Node_id.Set.equal desired current) in
      if membership_changed || pending_leaver || g.want_flush then begin
        (* Only nodes that hold a view may coordinate a change: a joiner
           with the smallest id would otherwise deadlock the group
           (members defer to it, it cannot lead), and a stopped joiner
           self-electing would livelock the real coordinator's change
           with ever-higher epochs. *)
        let pool =
          Node_id.Set.inter (Node_id.Set.union current (fresh_foreign t g)) reachable
        in
        if Option.is_none g.view then begin
          let others = Node_id.Set.remove t.node pool in
          if not (Node_id.Set.is_empty others) then
            unicast t ~dst:(Node_id.Set.min_elt others)
              (Hw_change_req
                 {
                   group = g.group;
                   joiners = Node_id.Set.elements (Node_id.Set.add t.node g.joiners);
                   leavers = Node_id.Set.elements g.leavers;
                   foreign = [];
                   flush = false;
                 })
          else
            (* every known view-holder is gone: restart the join cycle
               (after some patience, in case our install is in flight) *)
            match g.status with
            | Stopped { st_since; _ }
              when Time.diff (Rt.now t.rt) st_since > 2 * t.config.flush_deadline ->
                g.status <- Joining { started = Rt.now t.rt }
            | Stopped _ | Joining _ | Normal -> ()
        end
        else begin
        let pool = Node_id.Set.add t.node pool in
        let coord = Node_id.Set.min_elt pool in
        if Node_id.equal coord t.node then begin
          match g.change with
          | Some change when Node_id.Set.equal change.ch_proposal desired -> () (* already in progress *)
          | Some change ->
              cancel_change t g change ~outcome:"restarted";
              initiate t g desired
          | None -> initiate t g desired
        end
        else begin
          (* abandon any change I coordinate: a smaller node should lead *)
          (match g.change with
          | Some change -> cancel_change t g change ~outcome:"yielded"
          | None -> ());
          unicast t ~dst:coord
            (Hw_change_req
               {
                 group = g.group;
                 joiners = Node_id.Set.elements g.joiners;
                 leavers = Node_id.Set.elements g.leavers;
                 foreign = Node_id.Set.elements (Node_id.Set.remove coord (Node_id.Set.add t.node (fresh_foreign t g)));
                 flush = g.want_flush;
               })
        end
        end
      end

and initiate t g desired =
  g.epoch <- g.epoch + 1;
  Logs.debug (fun m -> m "n%d initiate %s e%d proposal=%s" t.node (Gid.to_string g.group) g.epoch (String.concat "," (List.map string_of_int (Node_id.Set.elements desired))));
  let epoch = g.epoch in
  let deadline = Rt.after_node t.rt t.node t.config.flush_deadline (fun () -> on_deadline t g epoch) in
  g.change <-
    Some
      {
        ch_epoch = epoch;
        ch_proposal = desired;
        ch_started = Rt.now t.rt;
        ch_flushed = Node_id.Map.empty;
        ch_deadline = deadline;
      };
  Rt.count t.rt "hwg.flushes_started";
  Rt.trace t.rt (fun () ->
      Plwg_obs.Event.Flush_begin { node = t.node; group = Gid.to_string g.group; epoch });
  let proposal = Node_id.Set.elements desired in
  List.iter
    (fun dst -> unicast t ~dst (Hw_stop { group = g.group; epoch; coord = t.node; proposal }))
    proposal

and on_deadline t g epoch =
  match g.change with
  | Some change when change.ch_epoch = epoch ->
      (* restart without the silent members (keep self and responders) *)
      cancel_change t g change ~outcome:"timeout";
      let responders = Node_id.Map.fold (fun n _ acc -> Node_id.Set.add n acc) change.ch_flushed Node_id.Set.empty in
      let reachable = Detector.reachable_set t.detector in
      (* drop stale hints about nodes that did not respond *)
      let silent = Node_id.Set.diff change.ch_proposal (Node_id.Set.union responders reachable) in
      g.joiners <- Node_id.Set.diff g.joiners silent;
      g.foreign <- List.filter (fun (_, n) -> not (Node_id.Set.mem n silent)) g.foreign;
      g.last_proposal <- Node_id.Set.diff g.last_proposal silent;
      evaluate t g
  | Some _ | None -> ()

and handle_stop t ~src:_ ~group ~epoch ~coord ~proposal =
  match lookup t group with
  | None ->
      (* not a member (already left): let the coordinator exclude us *)
      unicast t ~dst:coord
        (Hw_flushed { group; epoch; from = t.node; prev = None; delivered = []; store = []; leaving = true })
  | Some g ->
      if epoch < g.epoch then begin
        Logs.debug (fun m -> m "n%d nack-stop %s e%d<my e%d coord=%d" t.node (Gid.to_string group) epoch g.epoch coord);
        unicast t ~dst:coord (Hw_stop_nack { group; epoch = g.epoch }) end
      else begin
        let accept =
          epoch > g.epoch
          ||
          match g.status with
          | Stopped { st_epoch; st_coord; _ } -> epoch > st_epoch || (epoch = st_epoch && coord <= st_coord)
          | Joining _ | Normal -> true
        in
        if accept then begin
          Logs.debug (fun m -> m "n%d accept-stop %s e%d coord=%d" t.node (Gid.to_string group) epoch coord);
          g.epoch <- epoch;
          (* the proposal tells us who else exists; remember for recovery,
             but only as change candidates -- a proposal member may be a
             joiner with no view, which must never be elected leader *)
          g.last_proposal <- Node_id.Set.of_list proposal;
          (match g.change with
          | Some change when not (Node_id.equal coord t.node) -> cancel_change t g change ~outcome:"superseded"
          | Some _ | None -> ());
          let was_stopped = match g.status with Stopped _ -> true | Joining _ | Normal -> false in
          g.status <- Stopped { st_epoch = epoch; st_coord = coord; acked = false; st_since = Rt.now t.rt };
          if not was_stopped then t.callbacks.on_stop group;
          if t.config.auto_stop_ok || was_stopped then flush_reply t g
        end
      end

and flush_reply t g =
  match g.status with
  | Stopped stop ->
      stop.acked <- true;
      let delivered = vec_bindings g.delivered in
      unicast t ~dst:stop.st_coord
        (Hw_flushed
           {
             group = g.group;
             epoch = stop.st_epoch;
             from = t.node;
             prev = g.view;
             delivered;
             store = store_to_list g;
             leaving = g.leaving_self;
           })
  | Joining _ | Normal -> ()

and handle_stop_nack t ~group ~epoch =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match g.change with
      | Some change when epoch >= change.ch_epoch ->
          cancel_change t g change ~outcome:"nacked";
          g.epoch <- max g.epoch epoch;
          evaluate t g
      | Some _ | None -> g.epoch <- max g.epoch epoch)

and handle_flushed t ~group ~epoch ~from ~info =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match g.change with
      | Some change when change.ch_epoch = epoch && Node_id.Set.mem from change.ch_proposal ->
          Logs.debug (fun m -> m "n%d flushed-from n%d %s e%d" t.node from (Gid.to_string group) epoch);
          change.ch_flushed <- Node_id.Map.add from info change.ch_flushed;
          let all_in =
            Node_id.Set.for_all (fun member -> Node_id.Map.mem member change.ch_flushed) change.ch_proposal
          in
          if all_in then finalize t g change
      | Some _ | None -> ())

and finalize t g change =
  Logs.debug (fun m -> m "n%d finalize %s e%d" t.node (Gid.to_string g.group) change.ch_epoch);
  cancel_change t g change ~outcome:"installed";
  Rt.observe t.rt "hwg.flush_us" (float_of_int (Time.diff (Rt.now t.rt) change.ch_started));
  let infos = change.ch_flushed in
  let stayers =
    Node_id.Set.filter
      (fun member ->
        match Node_id.Map.find_opt member infos with Some info -> not info.fi_leaving | None -> false)
      change.ch_proposal
  in
  (* the new view id: minted by this coordinator, larger than every
     predecessor's sequence number *)
  let max_prev_seq =
    Node_id.Map.fold
      (fun _ info acc -> match info.fi_prev with Some v -> max acc v.View.id.View_id.seq | None -> acc)
      infos g.view_seq
  in
  g.view_seq <- max_prev_seq + 1;
  let view_id = { View_id.coord = t.node; seq = g.view_seq } in
  let preds =
    Node_id.Map.fold
      (fun _ info acc ->
        match info.fi_prev with
        | Some v -> if List.exists (View_id.equal v.View.id) acc then acc else v.View.id :: acc
        | None -> acc)
      infos []
  in
  let view = View.make ~id:view_id ~group:g.group ~members:(Node_id.Set.elements stayers) ~preds in
  (* virtual synchrony: per predecessor view, all of its members present
     here must deliver the same prefix of every sender's stream *)
  let by_prev = Hashtbl.create 8 in
  Node_id.Map.iter
    (fun member info ->
      match info.fi_prev with
      | Some prev ->
          let key = View_id.code prev.View.id in
          let bucket = try Hashtbl.find by_prev key with Not_found -> [] in
          Hashtbl.replace by_prev key ((member, info) :: bucket)
      | None -> ())
    infos;
  let cuts = Hashtbl.create 8 in
  (* cut per (prev view id code): sender -> max delivered count; code
     order = View_id.compare order, so iteration is deterministic *)
  Plwg_util.Tbl.iter_sorted ~cmp:Int.compare
    (fun prev_id bucket ->
      let cut =
        List.fold_left
          (fun acc (_, info) ->
            Node_id.Map.fold
              (fun sender count acc -> Node_id.Map.add sender (max count (delivered_count acc sender)) acc)
              info.fi_delivered acc)
          Node_id.Map.empty bucket
      in
      (* index only the message bodies someone is actually missing; in
         the common quiesced case every member already delivered the cut
         and no body is needed at all *)
      let floor =
        List.fold_left
          (fun acc (_, info) ->
            Node_id.Map.mapi (fun sender upto -> min upto (delivered_count info.fi_delivered sender)) acc)
          cut bucket
      in
      let needed sender seq =
        seq >= delivered_count floor sender && seq < delivered_count cut sender
      in
      let bodies = Hashtbl.create 64 in
      List.iter
        (fun (_, info) ->
          List.iter
            (fun msg -> if needed msg.sender msg.seq then Hashtbl.replace bodies (msg.sender, msg.seq) msg)
            info.fi_store)
        bucket;
      Hashtbl.replace cuts prev_id (cut, bodies))
    by_prev;
  let sync_for member info =
    match info.fi_prev with
    | None -> []
    | Some prev -> (
        match Hashtbl.find_opt cuts (View_id.code prev.View.id) with
        | None -> []
        | Some (cut, bodies) ->
            let missing = ref [] in
            Node_id.Map.iter
              (fun sender upto ->
                let have = delivered_count info.fi_delivered sender in
                for seq = have to upto - 1 do
                  match Hashtbl.find_opt bodies (sender, seq) with
                  | Some msg -> missing := msg :: !missing
                  | None ->
                      (* unreachable if stores are complete; losing the body
                         would break virtual synchrony, so fail loudly *)
                      Logs.err (fun m ->
                          m "hwg %a: missing body %a/#%d for %a" Gid.pp g.group Node_id.pp sender seq Node_id.pp
                            member)
                done)
              cut;
            List.sort
              (fun a b ->
                let c = Node_id.compare a.sender b.sender in
                if c <> 0 then c else Int.compare a.seq b.seq)
              !missing)
  in
  Node_id.Map.iter
    (fun member info ->
      unicast t ~dst:member
        (Hw_install
           {
             group = g.group;
             epoch = change.ch_epoch;
             view;
             sync = sync_for member info;
             you_left = info.fi_leaving;
           }))
    infos

and handle_install t ~group ~epoch ~view ~sync ~you_left =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g ->
      (* Only apply the install that answers our most recent flush: a
         stale install from a superseded coordinator would desynchronise
         the lineage (our flush state no longer matches it). *)
      let expected =
        match g.status with
        | Stopped { st_epoch; st_coord; _ } -> Int.equal epoch st_epoch && Node_id.equal view.View.id.View_id.coord st_coord
        | Joining _ | Normal -> false
      in
      if not expected then Logs.debug (fun m -> m "n%d reject-install %s e%d from-coord=%d status=%s" t.node (Gid.to_string group) epoch view.View.id.View_id.coord (match g.status with Stopped {st_epoch;st_coord;_} -> Printf.sprintf "stopped(e%d,c%d)" st_epoch st_coord | Joining _ -> "joining" | Normal -> "normal"));
      if expected then begin
        Logs.debug (fun m -> m "n%d install %s %s" t.node (Gid.to_string group) (Format.asprintf "%a" View.pp view));
        g.epoch <- max g.epoch epoch;
        (* deliver the synchronisation messages in the old view *)
        let old_view_id = match g.view with Some v -> v.View.id | None -> view.View.id in
        (* iterate to a fixpoint: in causal mode a later list element can
           unblock an earlier one *)
        let rec deliver_sync pending =
          let ready, blocked = List.partition (fun msg -> deliverable g msg) pending in
          if not (List.is_empty ready) then begin
            List.iter (fun msg -> deliver_now t g msg ~view_id:old_view_id) ready;
            deliver_sync blocked
          end
        in
        deliver_sync sync;
        if you_left then remove_group t g
        else begin
          reset_for_view t g view;
          after_install_resume t g
        end
      end

and handle_change_req t ~group ~joiners ~leavers ~foreign ~flush =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g ->
      g.joiners <- List.fold_left (fun acc n -> Node_id.Set.add n acc) g.joiners joiners;
      g.leavers <- List.fold_left (fun acc n -> Node_id.Set.add n acc) g.leavers leavers;
      add_foreign t g foreign;
      if flush then g.want_flush <- true;
      evaluate t g

and handle_join_announce t ~group ~joiner =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g ->
      if Option.is_some g.view && not (Node_id.Set.mem joiner g.joiners) then begin
        (match g.view with
        | Some v when View.mem joiner v -> () (* already in *)
        | Some _ | None -> g.joiners <- Node_id.Set.add joiner g.joiners);
        evaluate t g
      end

and handle_view_announce t ~group ~view_id ~members =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match g.status with
      | Joining since ->
          (* the group exists elsewhere: keep announcing, do not form a
             singleton view *)
          since.started <- Rt.now t.rt;
          add_foreign t g members
      | Normal | Stopped _ -> (
          match g.view with
          | Some view when not (View_id.equal view.View.id view_id) ->
              (* concurrent view of my group: remember its members so the
                 evaluation merges us *)
              add_foreign t g members;
              (* Only coordinators announce, so if my own coordinator has
                 moved to a concurrent view that excludes me it will keep
                 announcing a view I am not in while nothing ever
                 advertises mine: an excluded member would sit in its
                 stale view forever.  Announce my view myself so the
                 other side's evaluation merges me back. *)
              if (not (List.mem t.node members)) && List.mem (View.coordinator view) members then
                broadcast t (Hw_view_announce { group = g.group; view_id = view.View.id; members = view.View.members });
              evaluate t g
          | Some _ -> ()
          | None -> add_foreign t g members))

and handle_data t ~group ~view_id ~msg =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match g.view with
      | Some view when View_id.equal view.View.id view_id -> (
          match g.status with
          | Normal ->
              if deliverable g msg then begin
                deliver_now t g msg ~view_id;
                drain_frozen t g
              end
              else if msg.seq >= g.delivered.(msg.sender) then freeze t g view_id msg
          | Stopped _ ->
              (* already flushed: the install's sync decides this one *)
              freeze t g view_id msg
          | Joining _ -> freeze t g view_id msg)
      | Some _ | None -> freeze t g view_id msg)

and handle_to_req t ~group ~view_id ~origin ~local_id ~body =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match (g.status, g.view) with
      | Normal, Some view when View_id.equal view.View.id view_id && Node_id.equal (View.coordinator view) t.node ->
          let stamped = delivered_count g.to_stamped origin in
          if local_id >= stamped then begin
            g.to_stamped <- Node_id.Map.add origin (local_id + 1) g.to_stamped;
            stamp_and_multicast t g ~origin ~local_id body
          end
      | _, _ -> ())

(* ------------------------------------------------------------------ *)
(* Periodic machinery                                                  *)
(* ------------------------------------------------------------------ *)

(* Stability exchange: every member periodically multicasts its
   delivery vector for the current view.  Once every member is known to
   have delivered a message, no flush can ever need its body again, so
   it is pruned from the store. *)
let broadcast_stability t g =
  match (g.status, g.view) with
  | Normal, Some view when g.store_count > 0 ->
      List.iter
        (fun dst ->
          unicast t ~dst
            (Hw_stable
               { group = g.group; view_id = view.View.id; from = t.node; delivered = vec_bindings g.delivered }))
        view.View.members
  | _, _ -> ()

let handle_stable t ~group ~view_id ~from ~delivered =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match g.view with
      | Some view when View_id.equal view.View.id view_id ->
          let n = Array.length g.delivered in
          let row =
            if Int.equal (Array.length g.peer_vec.(from)) 0 then begin
              let r = Array.make n 0 in
              g.peer_vec.(from) <- r;
              r
            end
            else g.peer_vec.(from)
          in
          Array.fill row 0 n 0;
          List.iter (fun (node, count) -> row.(node) <- count) delivered;
          g.peer_seen.(from) <- true;
          if List.for_all (fun member -> g.peer_seen.(member)) view.View.members then begin
            (* every member reported for this view, so its row is
               allocated and fresh *)
            let floor_for sender =
              List.fold_left (fun acc member -> min acc g.peer_vec.(member).(sender)) max_int view.View.members
            in
            Array.fill g.stable_floor 0 n 0;
            for sender = 0 to n - 1 do
              let dq = g.store.(sender) in
              if not (Deque.is_empty dq) then begin
                let floor = floor_for sender in
                g.stable_floor.(sender) <- floor;
                (* per-sender deques are seq-ascending: everything below
                   the floor sits at the front, so pruning pops O(pruned) *)
                let rec prune () =
                  match Deque.peek_front dq with
                  | Some msg when msg.seq < floor ->
                      ignore (Deque.pop_front dq);
                      g.store_count <- g.store_count - 1;
                      prune ()
                  | Some _ | None -> ()
                in
                prune ()
              end
            done
          end
      | Some _ | None -> ())

let install_singleton t g =
  g.view_seq <- g.view_seq + 1;
  let view =
    View.make ~id:{ View_id.coord = t.node; seq = g.view_seq } ~group:g.group ~members:[ t.node ] ~preds:[]
  in
  reset_for_view t g view;
  after_install_resume t g

let announce t g =
  match (g.status, g.view) with
  | (Normal | Stopped _), Some view when Node_id.equal (View.coordinator view) t.node ->
      broadcast t (Hw_view_announce { group = g.group; view_id = view.View.id; members = view.View.members })
  | _, _ -> ()

let tick t g =
  match g.status with
  | Joining since ->
      if Time.diff (Rt.now t.rt) since.started > t.config.join_timeout then install_singleton t g
      else broadcast t (Hw_join_announce { group = g.group; joiner = t.node })
  | Normal | Stopped _ -> evaluate t g

let start_group_timers t g =
  let key = Gid.code g.group in
  let alive () = Plwg_util.Itbl.mem t.states key in
  (* The loops reschedule with [Rt.at_node_] and guard the body on
     node liveness rather than using [after_node_]: an [after_node_]
     timer that fires while the node is crashed is skipped outright,
     which would kill the loop permanently and leave the node a silent
     zombie after recovery.  Here a crash merely suppresses the body;
     the first tick after the node comes back resumes the protocol.
     The loops are never cancelled (they stop by [alive] turning
     false), so the no-handle variant applies. *)
  let up () = Rt.is_alive t.rt t.node in
  let rec tick_loop () =
    if alive () then begin
      if up () then tick t g;
      Rt.at_node_ t.rt t.node t.config.tick_period tick_loop
    end
  in
  let rec announce_loop () =
    if alive () then begin
      if up () then announce t g;
      Rt.at_node_ t.rt t.node t.config.announce_period announce_loop
    end
  in
  let rec stability_loop () =
    if alive () then begin
      if up () then broadcast_stability t g;
      Rt.at_node_ t.rt t.node t.config.stability_period stability_loop
    end
  in
  (* stagger the first firing so nodes do not tick in lock-step *)
  let jitter = Time.us (Plwg_util.Rng.int (Rt.rng_node t.rt t.node) (t.config.tick_period / 2)) in
  Rt.at_node_ t.rt t.node jitter tick_loop;
  Rt.at_node_ t.rt t.node (jitter + (t.config.announce_period / 3)) announce_loop;
  if t.config.stability_period > 0 then Rt.at_node_ t.rt t.node (jitter + (t.config.stability_period / 2)) stability_loop

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let join ?(ordering = Fifo) t group =
  match lookup t group with
  | Some _ -> () (* already joining or joined *)
  | None ->
      let n = Rt.n_nodes t.rt in
      let g =
        {
          group;
          ordering;
          status = Joining { started = Rt.now t.rt };
          view = None;
          epoch = 0;
          view_seq = seq_floor_of t group;
          next_seq = 0;
          next_local = 0;
          delivered = Array.make n 0;
          to_delivered = Node_id.Map.empty;
          to_stamped = Node_id.Map.empty;
          store = Array.init n (fun _ -> Deque.create ());
          store_count = 0;
          store_peak = 0;
          stable_floor = Array.make n 0;
          peer_vec = Array.make n [||];
          peer_seen = Array.make n false;
          frozen = [];
          outbox = [];
          to_pending = Deque.create ();
          joiners = Node_id.Set.empty;
          leavers = Node_id.Set.empty;
          foreign = [];
          last_proposal = Node_id.Set.empty;
          want_flush = false;
          leaving_self = false;
          change = None;
          members_memo_for = -1;
          members_memo = Node_id.Set.empty;
        }
      in
      Plwg_util.Itbl.replace t.states (Gid.code group) g;
      broadcast t (Hw_join_announce { group; joiner = t.node });
      start_group_timers t g

let leave t group =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match (g.status, g.view) with
      | Joining _, _ -> remove_group t g
      | _, Some view when List.equal Node_id.equal view.View.members [ t.node ] -> remove_group t g
      | _, _ ->
          g.leaving_self <- true;
          g.leavers <- Node_id.Set.add t.node g.leavers;
          evaluate t g)

let stop_ok t group =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g -> (
      match g.status with
      | Stopped { acked = false; _ } -> flush_reply t g
      | Stopped _ | Joining _ | Normal -> ())

let force_flush t group =
  match lookup_exn t group with
  | exception Not_found -> ()
  | g ->
      g.want_flush <- true;
      evaluate t g

let view_of t group = match lookup t group with Some g -> g.view | None -> None

let is_member t group =
  match lookup t group with
  | Some g -> ( match (g.status, g.view) with (Normal | Stopped _), Some _ -> true | _, _ -> false)
  | None -> false

let groups t =
  (* Gid.code order = Gid.compare order, so the listing is unchanged *)
  Plwg_util.Itbl.fold_sorted
    (fun _code g acc -> if Option.is_some g.view then g.group :: acc else acc)
    t.states []
  |> List.rev

let store_size t group = match lookup t group with Some g -> g.store_count | None -> 0

let store_peak t group = match lookup t group with Some g -> g.store_peak | None -> 0

let am_coordinator t group =
  match view_of t group with Some view -> Node_id.equal (View.coordinator view) t.node | None -> false

(* A finalized view change clears want_flush: hook into install. *)

let create ?(config = default_config) ?recorder ~transport ~detector callbacks node =
  let rt = Transport.runtime transport in
  let endpoint = Transport.endpoint transport node in
  let t =
    {
      node;
      rt;
      endpoint;
      detector;
      config;
      callbacks;
      recorder;
      transport;
      states = Plwg_util.Itbl.create ();
      seq_floor = Plwg_util.Itbl.create ();
      gid_counter = 0;
    }
  in
  Transport.on_receive endpoint (fun ~src payload ->
      match payload with
      | Hw_join_announce { group; joiner } -> handle_join_announce t ~group ~joiner
      | Hw_view_announce { group; view_id; members } -> handle_view_announce t ~group ~view_id ~members
      | Hw_change_req { group; joiners; leavers; foreign; flush } ->
          handle_change_req t ~group ~joiners ~leavers ~foreign ~flush
      | Hw_stop { group; epoch; coord; proposal } -> handle_stop t ~src ~group ~epoch ~coord ~proposal
      | Hw_stop_nack { group; epoch } -> handle_stop_nack t ~group ~epoch
      | Hw_flushed { group; epoch; from; prev; delivered; store; leaving } ->
          let info =
            {
              fi_prev = prev;
              fi_delivered = List.fold_left (fun acc (n, c) -> Node_id.Map.add n c acc) Node_id.Map.empty delivered;
              fi_store = store;
              fi_leaving = leaving;
            }
          in
          handle_flushed t ~group ~epoch ~from ~info
      | Hw_install { group; epoch; view; sync; you_left } ->
          (match lookup t group with
          | Some g when not you_left -> g.want_flush <- false
          | Some _ | None -> ());
          handle_install t ~group ~epoch ~view ~sync ~you_left
      | Hw_data { group; view_id; msg } -> handle_data t ~group ~view_id ~msg
      | Hw_to_req { group; view_id; origin; local_id; body } ->
          handle_to_req t ~group ~view_id ~origin ~local_id ~body
      | Hw_stable { group; view_id; from; delivered } -> handle_stable t ~group ~view_id ~from ~delivered
      | _ -> ());
  Detector.on_change detector (fun _peer _status ->
      Plwg_util.Itbl.iter_sorted (fun _ g -> evaluate t g) t.states);
  (* Timers pending when this node crashed were silently skipped, so an
     in-flight change may have lost its deadline timer.  On recovery,
     close it (pairing its Flush_begin) and re-evaluate every group so
     membership restarts from current reachability. *)
  Rt.on_recover rt node (fun () ->
      Plwg_util.Itbl.iter_sorted
        (fun _ g -> match g.change with Some change -> cancel_change t g change ~outcome:"recovered" | None -> ())
        t.states;
      Plwg_util.Itbl.iter_sorted (fun _ g -> evaluate t g) t.states);
  t
