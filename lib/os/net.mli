(** The network: a collection of nodes joined by data-communications links,
    plus the location-transparent message system over it.

    Reproduces the EXPAND features the paper relies on: decentralized control
    (no network master), dynamic best-path routing with automatic re-routing
    after a line failure, and an end-to-end protocol that retransmits while a
    destination is unreachable for a bounded interval. Messages that remain
    unroutable past the attempt budget are dropped and counted — senders
    discover the loss by timeout, which is what drives the TMP's unilateral
    abort and safe-delivery machinery. *)

type t

val create : ?seed:int -> ?config:Hw_config.t -> unit -> t
(** A fresh network with its own simulation engine, trace and metrics. *)

val engine : t -> Tandem_sim.Engine.t

val config : t -> Hw_config.t

val trace : t -> Tandem_sim.Trace.t

val metrics : t -> Tandem_sim.Metrics.t

val rpc_calls_family : t -> Tandem_sim.Metrics.counter_family
(** The interned [rpc.calls{name=…}] family (one counter per server-class
    name), pre-resolved so the RPC hot path skips the canonical-name
    formatting per call. *)

val spans : t -> Tandem_sim.Span.t
(** The network-wide per-transaction span registry (transids are
    network-unique, so one registry serves every node). *)

(** {1 Topology} *)

val add_node : t -> id:Ids.node_id -> cpus:int -> Node.t
(** Add a node. Node ids must be unique and at least 0: the net keeps its
    per-pair state (routes, boxcar lanes) in arrays indexed by node id. *)

val node : t -> Ids.node_id -> Node.t
(** Raises [Not_found] for unknown ids. *)

val nodes : t -> Node.t list

val add_link :
  ?latency:Tandem_sim.Sim_time.span -> t -> Ids.node_id -> Ids.node_id -> unit
(** Raises [Invalid_argument] for a self link or a negative node id. *)

val fail_link : t -> Ids.node_id -> Ids.node_id -> unit

val restore_link : t -> Ids.node_id -> Ids.node_id -> unit

val all_links_up : t -> bool
(** Whether no link is currently failed — the network-healed invariant the
    chaos checker asserts after a scenario's schedule has drained. *)

val degrade_link : t -> Ids.node_id -> Ids.node_id -> factor:int -> unit
(** Multiply the latency of every link joining the two nodes by [factor]
    (of its nominal value; repeated degradations do not compound). Models a
    slow or congested line: messages are delayed but per-(src,dst) FIFO
    order is preserved, exactly the reordering-free delay EXPAND's
    end-to-end protocol permits. Raises [Invalid_argument] if [factor < 1].
    Counted under [net.link_degradations]. *)

val repair_link_latency : t -> Ids.node_id -> Ids.node_id -> unit
(** Restore the nominal latency of every link joining the two nodes.
    In-flight messages keep their degraded-era arrival times; later messages
    may not overtake them (FIFO clamp). *)

val partition : t -> Ids.node_id list -> Ids.node_id list -> unit
(** Fail every link joining the two groups. *)

val heal_partition : t -> unit
(** Restore every failed link. *)

val route : t -> Ids.node_id -> Ids.node_id -> (int * Tandem_sim.Sim_time.span) option
(** Test hook: [route t a b] is [(hops, total latency)] of the current best
    path, or [None] when [b] is unreachable from [a]. *)

val reachable : t -> Ids.node_id -> Ids.node_id -> bool

(** {1 Message system} *)

val send : t -> Message.t -> unit
(** Location-transparent send. Within a node this is a bus (or same-CPU)
    transfer; across nodes the end-to-end protocol routes, retransmits on
    transient unreachability, and gives up after the configured attempts.
    Routable cross-node messages are boxcarred: messages to the same
    destination departing within [Hw_config.boxcar_window] share one
    scheduled delivery paying one link latency plus
    [Hw_config.boxcar_marginal_cost] per extra rider, preserving
    per-(src,dst) FIFO order. *)

val fresh_corr : t -> int
(** Allocate a network-unique correlation number. *)

(** {1 Whole-node failure} *)
