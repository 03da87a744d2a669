(** The conventional comparator: a single-system transaction manager using
    Write-Ahead-Log with halt-and-restart recovery.

    This is the design the paper positions TMF against: "conventional data
    base recovery techniques … are oriented to repairing the data base after
    a system halt and restart". Discipline, per the paper's description of
    WAL: before-images are write-forced to the log *prior to performing any
    update of the data base*, and the commit record is forced at commit. A
    processor crash halts the whole system: every in-flight transaction is
    lost, service stops, and restart scans the log — redoing committed work
    since the last control point and undoing losers — before service
    resumes. Experiments E5 (availability under failure) and E6 (forced
    writes per transaction) run the same workload against this manager and
    against TMF. *)

type t

val create :
  engine:Tandem_sim.Engine.t ->
  metrics:Tandem_sim.Metrics.t ->
  data_volume:Tandem_disk.Volume.t ->
  log_volume:Tandem_disk.Volume.t ->
  ?cache_capacity:int ->
  ?lock_timeout:Tandem_sim.Sim_time.span ->
  unit ->
  t

val add_file : t -> Tandem_db.Schema.file_def -> unit
(** Single-system: every partition lands on the one data volume. *)

val load_file : t -> file:string -> (Tandem_db.Key.t * string) list -> unit
(** Bulk-load set-up rows ({!Tandem_db.File.load}), then take a control
    point. *)

val is_available : t -> bool
(** Test hook: [false] from {!crash} until {!restart} completes. *)

type tx

val begin_transaction : t -> (tx, [ `Unavailable ]) result

val read :
  t -> tx -> file:string -> Tandem_db.Key.t -> (string option, [ `Lock_timeout | `Halted ]) result
(** Acquires the record lock (all reads lock, as in the TMF configuration
    under comparison). Runs in a fiber. *)

val update :
  t -> tx -> file:string -> Tandem_db.Key.t -> string ->
  (unit, [ `Lock_timeout | `Not_found | `Halted ]) result
(** Forces the log record before touching the data base, per the WAL rule. *)

val commit : t -> tx -> (unit, [ `Halted ]) result
(** Force the commit record; release locks. *)

val abort : t -> tx -> unit
(** Undo from the in-memory log tail; release locks. *)

val file_contents : t -> file:string -> (Tandem_db.Key.t * string) list
(** Test hook: direct (uncharged) observation. *)

(** {1 Crash and restart} *)

val crash : t -> unit
(** System halt: volatile state is lost (cache reverts to flushed blocks,
    live transactions vanish, locks drop); service becomes unavailable
    until {!restart} completes. *)

val restart : t -> on_done:(unit -> unit) -> unit
(** Run crash-restart recovery in a fiber: scan the (forced, surviving) log;
    redo committed transactions' changes in order, undo losers; then reopen
    service. [on_done] fires at completion. Restart time grows with the log
    length — the optimization-for-restart-speed trade-off the paper
    contrasts with NonStop. *)

val unavailable_total : t -> Tandem_sim.Sim_time.span
(** Accumulated service outage (halt to end-of-restart). *)

val forced_log_writes : t -> int
(** Test hook: physical log forces so far (the [baseline.forced_log_writes]
    counter). *)
