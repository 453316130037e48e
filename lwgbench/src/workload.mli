(** The LWG workloads: the Dynamic-mode stack
    ([Plwg_harness.Stack.wire]) on any runtime backend, driven by
    open-loop LWG senders (one per LWG, at a fixed rate), with the
    outputs checked as they arrive. *)

type shape =
  | Steady of { window : Plwg_sim.Time.span; clusters_per_s : float }
      (** each cluster: set up, settle, measure [window] of virtual time;
          [clusters_per_s] clusters per [--seconds], so a run's virtual
          work is fixed and it averages over the stack's variation from
          one cluster to the next *)
  | Heal of { heals_per_s : float }  (** partition/heal cycles per [--seconds] *)

type spec = {
  name : string;
  n_app : int;
  n_servers : int;
  n_lwgs : int;
  rate_hz : int;  (** per LWG sender *)
  n_domains : int;  (** 0 runs the deterministic sim *)
  shape : shape;
}

val steady : spec
val steady_domains2 : spec
val heal : spec
val all : spec list

type result = {
  correct : bool;
  errors : string list;  (** first violations of the output checks *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  details : Jsonw.t;  (** stamp-free run details for the results file *)
  virtual_digest : string;
      (** digest of the run's virtual-time outcome — per-node delivery
          counts, wire counts and the sorted latency samples — which a
          tracing tap must leave unchanged *)
}

val run : spec -> seed:int -> seconds:int -> trace:bool -> result

val run_size : spec -> seed:int -> size:int -> traced:bool -> result
(** A run of [size] clusters (steady) or heals (heal), without the
    untraced reference cluster of a traced {!run}: a test compares the
    traced and untraced outcomes itself. *)
