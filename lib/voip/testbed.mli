(** The paper's Figure 7 topology, as a ready-to-run simulation.

    Two enterprise networks of [n_ua] UAs and one SIP proxy each, 100BaseT
    LANs behind edge routers, DS1 uplinks to an Internet cloud with 50 ms
    one-way delay and 0.42% end-to-end loss, and the vIDS host placed
    between network B's edge router and its hub so all traffic entering or
    leaving B crosses it.  Voice is G.729. *)

type vids_mode =
  | Inline  (** vIDS forwards traffic and adds processing latency (§7.2). *)
  | Monitor  (** vIDS sees all traffic but adds no delay. *)
  | Off  (** The host forwards blindly — the paper's "without vIDS". *)

type t = {
  sched : Dsim.Scheduler.t;
  rng : Dsim.Rng.t;
  net : Dsim.Network.t;
  metrics : Metrics.t;
  uas_a : Ua.t list;
  uas_b : Ua.t list;
  proxy_a : Proxy.t;
  proxy_b : Proxy.t;
  proxy_a_addr : Dsim.Addr.t;
  proxy_b_addr : Dsim.Addr.t;
  cloud : Dsim.Network.node;
  vids_node : Dsim.Network.node;
  engine : Vids.Engine.t option;
}

val make :
  ?seed:int ->
  ?n_ua:int ->
  ?vids:vids_mode ->
  ?config:Vids.Config.t ->
  ?overrides:(string * Efsm.Machine.spec) list ->
  ?loss:float ->
  ?wan_delay_ms:float ->
  ?vad:bool ->
  ?record_route:bool ->
  ?auth:bool ->
  unit ->
  t
(** Builds the network and registers every UA (registration packets are
    scheduled in the first simulated second).  [vad] enables
    speech-activity detection on every UA (the paper's G.729 configuration
    has SAD enabled); off by default so packet counts stay deterministic
    for the calibrated cost model.  [record_route] keeps in-dialog
    signaling on the proxy path instead of going direct between UAs.
    [auth] makes both registrars challenge REGISTERs with digest
    authentication (the prevention the paper's threat model assumes
    absent). *)

val engine_exn : t -> Vids.Engine.t

val ua_b_host : t -> int -> string
(** IP address of network B's i-th UA (0-based). *)

val attacker : t -> host:string -> Dsim.Network.node * Transport.t
(** Attaches a host on the Internet side of the cloud; its traffic to
    network B crosses the vIDS host. *)

val run_workload :
  t -> ?profile:Call_generator.profile -> duration:Dsim.Time.t -> unit -> unit
(** Starts the Figure-8 workload on network A's UAs and runs the scheduler
    until [duration] plus a drain period. *)

val run_until : t -> Dsim.Time.t -> unit
