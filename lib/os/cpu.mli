(** A processor module.

    Each processor is an independent failure unit with its own power supply
    and memory. The simulation models processor time as a virtual FIFO queue:
    a fiber that [consume]s processor time is delayed until the processor has
    served everything scheduled before it. Utilization accounting feeds the
    throughput-scaling experiment (F2). *)

type t

val create : Tandem_sim.Engine.t -> node:Ids.node_id -> t

val node : t -> Ids.node_id

val is_up : t -> bool

val mark_down : t -> unit
(** Also clears the backlog of queued processor time. Call it only through
    [Node.fail_cpu], which keeps [Node.up_cpus] in step. *)

val mark_up : t -> unit
(** Call it only through [Node.restore_cpu]. *)

val consume : t -> Tandem_sim.Sim_time.span -> unit
(** [consume t span] charges [span] of processor time to the calling fiber,
    suspending it until the time has been served. Must run inside a fiber. *)

val total_busy : t -> Tandem_sim.Sim_time.span
(** Cumulative processor time served since creation. *)
