(** A Tandem node (system): 2–16 processors joined by dual interprocessor
    buses, a process table and a process name registry.

    The name registry plays the role of the GUARDIAN device/process name
    space ([$DISC1]-style names): requesters address long-lived services by
    name, and a process-pair re-points its name at the backup on takeover,
    which is what makes fail-over transparent to requesters. *)

type t

val create :
  engine:Tandem_sim.Engine.t ->
  trace:Tandem_sim.Trace.t ->
  metrics:Tandem_sim.Metrics.t ->
  id:Ids.node_id ->
  cpus:int ->
  t
(** [cpus] must be between 2 and 16. *)

val id : t -> Ids.node_id

val engine : t -> Tandem_sim.Engine.t

val metrics : t -> Tandem_sim.Metrics.t

val cpu_count : t -> int

val cpu : t -> Ids.cpu_id -> Cpu.t

val up_cpus : t -> Ids.cpu_id list
(** The processors that are up, ascending. Kept by {!fail_cpu} and
    {!restore_cpu}, so a call allocates nothing. *)

val spawn : t -> ?name:string -> cpu:Ids.cpu_id -> (Process.t -> unit) -> Process.t
(** Start a process on the given processor. Raises [Invalid_argument] if the
    processor is down. *)

val find_process : t -> Ids.pid -> Process.t option
(** An array index by serial, no hash. *)

val register_name : t -> string -> Ids.pid -> unit

val unregister_name : t -> string -> unit

val lookup_name : t -> string -> Ids.pid option

val deliver_local : t -> Message.t -> unit
(** Deliver a message between processes of this node: same-processor latency
    or one interprocessor-bus transfer. Silently dropped (and counted) if
    both buses are down and the transfer would cross processors, or if the
    destination is dead. *)

(** {1 Module failures} *)

val fail_cpu : t -> Ids.cpu_id -> unit
(** Processor failure: every process on it dies instantly; other processors
    learn of the death after the failure-detection interval (the "I'm alive"
    protocol), at which point the registered down-hooks run. *)

val restore_cpu : t -> Ids.cpu_id -> unit
(** Reload a processor. Runs the up-hooks. Processes do not come back — the
    process-pair mechanism re-creates backups. *)

val fail_bus : t -> [ `X | `Y ] -> unit
(** Fail one of the dual buses; traffic continues on the other. *)

val restore_bus : t -> [ `X | `Y ] -> unit

val on_cpu_down : t -> (Ids.cpu_id -> unit) -> unit
(** Register a hook run (after the detection interval) when a processor
    fails. Used by process-pairs for takeover. *)

val on_cpu_up : t -> (Ids.cpu_id -> unit) -> unit
