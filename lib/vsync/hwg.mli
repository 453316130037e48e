(** Partitionable virtually-synchronous group service — the paper's
    {e heavy-weight group} (HWG) substrate.

    One [t] runs per node and manages all of that node's group
    memberships.  The interface is the paper's Table 1:
    [join]/[leave]/[send]/[stop_ok] downcalls and [on_view]/[on_data]/
    [on_stop] upcalls.

    Guarantees (checked by {!Recorder} in the test suite):
    - {b self-inclusion}: a node only installs views it belongs to;
    - {b view agreement}: two nodes installing the same view id agree on
      its membership;
    - {b virtual synchrony}: two nodes that install the same view and
      the same successor view deliver the same set of messages in
      between;
    - {b FIFO} (or total order, per group) within each view;
    - {b partitionable operation}: a partition splits a group into
      concurrent views, each making progress on its side; healed
      partitions merge back into one view whose [preds] record the
      lineage.

    The membership protocol is coordinator-driven: the smallest
    reachable candidate runs an epoch-stamped stop / flush / install
    round.  Peer discovery (for joins and for partition healing) rides
    on periodic best-effort [VIEW-ANNOUNCE] broadcasts, mirroring IP
    multicast on a LAN. *)

open Plwg_sim
open Types

type t

type config = {
  announce_period : Time.span;  (** coordinator view-announce gossip interval *)
  tick_period : Time.span;  (** local re-evaluation interval *)
  join_timeout : Time.span;  (** silence before a joiner forms a singleton view *)
  flush_deadline : Time.span;  (** coordinator patience for FLUSHED replies *)
  auto_stop_ok : bool;  (** acknowledge Stop upcalls automatically *)
  stability_period : Time.span;
      (** interval of the delivery-vector exchange that lets members
          prune stable messages from the retransmission store (bounded
          memory in long-lived views); 0 disables the exchange *)
}

val default_config : config

type callbacks = {
  on_view : Gid.t -> View.t -> unit;
      (** New view installed for a group this node belongs to. *)
  on_data : Gid.t -> view_id:View_id.t -> src:Node_id.t -> Payload.t -> unit;
      (** Message delivery; [view_id] is the view the message was sent
          in (always the currently installed view). *)
  on_stop : Gid.t -> unit;
      (** Traffic must stop (a flush is starting).  Reply with
          [stop_ok] unless [auto_stop_ok] is set. *)
}

val no_callbacks : callbacks

(** Hook receiving protocol-level events, used by tests to check
    virtual-synchrony invariants (see {!Recorder}). *)
type event =
  | Installed of { node : Node_id.t; view : View.t }
  | Delivered of { node : Node_id.t; group : Gid.t; view_id : View_id.t; origin : Node_id.t; local_id : int }
  | Left of { node : Node_id.t; group : Gid.t }

val create :
  ?config:config ->
  ?recorder:(Time.t -> event -> unit) ->
  transport:Plwg_transport.Transport.t ->
  detector:Plwg_detector.Detector.t ->
  callbacks ->
  Node_id.t ->
  t

val node : t -> Node_id.t

val fresh_gid : t -> Gid.t
(** Mint a group identifier unique across the whole system. *)

val join : ?ordering:ordering -> t -> Gid.t -> unit
(** Start joining a group.  Completion is signalled by the first
    [on_view] containing this node.  Idempotent while joining/joined. *)

val leave : t -> Gid.t -> unit
(** Leave a group.  The node takes part in one final flush (so virtual
    synchrony holds for the survivors) and then stops receiving
    upcalls for the group. *)

val send : t -> Gid.t -> Payload.t -> unit
(** Virtually-synchronous multicast to the current view.  While a flush
    is in progress the message is buffered and sent in the next view.
    @raise Invalid_argument if this node is not a member (nor joining). *)

val send_if_member : t -> Gid.t -> Payload.t -> unit
(** [send] when {!is_member} holds, otherwise drop the message: one
    table lookup instead of two. *)

val stop_ok : t -> Gid.t -> unit
(** Acknowledge an [on_stop] upcall (manual mode only). *)

val force_flush : t -> Gid.t -> unit
(** Request a view change that re-installs the current membership.  The
    flush synchronisation point is what the light-weight-group layer's
    merge-views protocol (paper Figure 5) relies on. *)

val view_of : t -> Gid.t -> View.t option
val is_member : t -> Gid.t -> bool
val groups : t -> Gid.t list
(** Groups this node is currently a member of (installed views). *)

val am_coordinator : t -> Gid.t -> bool

val store_size : t -> Gid.t -> int
(** Messages currently retained for flush-time retransmission in the
    group's view (introspection; exercised by the stability-GC tests).
    O(1): a counter, not a list walk. *)

val store_peak : t -> Gid.t -> int
(** Lifetime high-water mark of {!store_size} for the group (spans view
    changes; used by the macro benchmark to report peak memory). *)
