(** The tracing tap: an {!Plwg_runtime.Rt.S} backend that wraps another
    one and measures the protocol stack from outside.

    The stack is wired onto {!rt} instead of the backend's own handle.
    Every subscribed handler call and every timer closure then runs
    inside a span timed with a monotonic clock, and every
    [send]/[multicast] is counted by the layer of its message.  A
    handler span belongs to the layer of the message it delivers; a
    timer span to the layer of the first message the timer sends, or
    to [timer.silent] if it sends none.  Classifying a message is timed
    as its own span and subtracted from the span it interrupts, so the
    layer self times, the tap's time and the runtime's own time add up
    to the wall time of the backend's [run] calls.

    Messages travel wrapped with their send instant, which gives the
    runtime's transit time (link plus CPU-queue wait).  The wrapper is
    invisible to the stack and does not change what the backend does:
    a traced sim run delivers exactly what the untraced one does.

    All state is per node, so on a multi-domain backend no locks are
    needed: a node's handlers and timers only run on its own domain. *)

open Plwg_sim

type t

val wrap : Plwg_runtime.Rt.t -> t
val rt : t -> Plwg_runtime.Rt.t

(** {1 Spans around the benchmark's own calls} *)

val app_timer : t -> Node_id.t -> Time.span -> (unit -> unit) -> unit
(** Schedule a node timer of the benchmark's own (its open-loop
    senders); its self time counts as [app]. *)

val lwg_send : t -> Node_id.t -> (unit -> unit) -> unit
(** Run a [Service.send] call as an [lwg.send] span. *)

val upcall : t -> Node_id.t -> (unit -> unit) -> unit
(** Run the application's delivery upcall as an [app.upcall] span. *)

val run_span : t -> (unit -> unit) -> unit
(** Time one [run]/[run_span] call of the backend (main executor). *)

(** {1 Results} *)

val reset : t -> unit
(** Zero every counter and span total; between runs only. *)

type summary = {
  wall_s : float;  (** summed wall time of {!run_span} calls *)
  span_s : float;  (** time inside top-level spans, over all nodes *)
  events : int;  (** handler calls plus timer firings *)
  layer_us : (string * float) list;  (** self time per layer, in µs; the layers partition all span time *)
  kind_us : (string * float) list;  (** self time per message kind or call, in µs *)
  tap_s : float;  (** classification and accounting time *)
  msgs : (string * int) list;  (** wire copies per message kind *)
  words : (string * int) list;  (** [Obj.reachable_words] per message kind, summed over copies *)
  segs : int;
  acks : int;
  retransmits : int;
  datagrams : int;
  transit_p99_us : float;
  naming_rtt_p50_us : float;
}

val summary : t -> summary

val spans_json : t -> Jsonw.t
(** Per-node, per-kind span totals and counts, for the results file. *)
