(** Scenario plumbing: canonical clusters, closed-loop workload submission
    and the schedule-driven run loop.

    A scenario builds a cluster here, generates a {!Schedule} from its
    seeded RNG, and hands both to {!run_schedule}: the engine is driven up
    to each fault's instant and the fault applied from outside the event
    loop (so recovery faults may themselves drive the engine). After the
    schedule drains, {!drain} runs the cluster to quiescence and
    {!check_bank} asserts the global invariants. *)

type bank = {
  cluster : Tandem_encompass.Cluster.t;
  spec : Tandem_encompass.Workload.bank_spec;
  debit_credit_tcps : Tandem_encompass.Tcp.t list;
      (** TCPs running the debit-credit program — their completions must
          match the HISTORY record count exactly. *)
  other_tcps : Tandem_encompass.Tcp.t list;
      (** Transfer and inquiry TCPs (conserving / read-only workloads). *)
  initial_total : int;  (** Account funds at the start of the run. *)
}

val build_bank :
  ?nodes:int ->
  ?cpus:int ->
  ?transfers:bool ->
  ?inquiries:bool ->
  ?config:Tandem_os.Hw_config.t ->
  seed:int ->
  quick:bool ->
  unit ->
  bank
(** The standard bank of {!Tandem_encompass.Workload.build_bank}: [nodes]
    (default 1) fully-linked nodes, one mirrored data volume per node
    holding that node's account partition, BANK/TRANSFER/INQUIRY server
    classes on node 1. To it come one debit-credit TCP per node and — when
    enabled — a transfer TCP ([transfers], default on for multi-node
    clusters) and an inquiry TCP ([inquiries], default off) on node 1. Every terminal's input queue is preloaded, so the run is
    closed-loop; [quick] shrinks terminals and inputs for CI. *)

val committed : bank -> int
(** Transactions carried to completion across every TCP. *)

val restarts : bank -> int

val failures : bank -> int

val run_schedule :
  Tandem_encompass.Cluster.t -> Injector.t -> Schedule.t -> unit
(** Drive the engine to each schedule entry's instant in order and apply the
    fault there. Entries whose instant has already passed (a recovery fault
    advanced the clock beyond them) are applied immediately. *)

val drain : Tandem_encompass.Cluster.t -> unit
(** Run the cluster until its event queue is empty — every preloaded input
    has completed, failed or been abandoned at the restart limit. *)

val check_bank : bank -> Checker.verdict
(** {!Checker.bank} with this bank's initial funds and debit-credit
    completion count. *)

(** {1 Seeded schedule helpers} *)

val draw_at : Tandem_sim.Rng.t -> quick:bool -> int
(** One fault instant uniform in {!window}. *)

val draw_repair_delay : Tandem_sim.Rng.t -> quick:bool -> int
(** Milliseconds between a crash and its paired repair. *)
