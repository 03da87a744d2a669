(** The DISCPROCESS: an I/O process-pair per logical disc volume.

    It is the single point of control for its volume: it performs all
    structured-file accesses, keeps the lock table for the records and files
    resident there (concurrency control is decentralized — there is no
    central lock manager), generates before/after audit images for updates
    to audited files, and checkpoints every intention to its backup before
    acting, which is what replaces the Write-Ahead-Log force (E6 measures
    the difference).

    Transactional requests are validated against the processor's local
    transaction state table: work is accepted only while the transid is in
    active state. Requests wait for record locks inside their own fibers, so
    a lock queue never blocks the volume for other requests. *)

type t

val spawn :
  net:Tandem_os.Net.t ->
  tmf:Tmf.t ->
  node:Tandem_os.Node.t ->
  volume:Tandem_disk.Volume.t ->
  name:string ->
  trail:string ->
  primary_cpu:Tandem_os.Ids.cpu_id ->
  backup_cpu:Tandem_os.Ids.cpu_id ->
  ?cache_capacity:int ->
  unit ->
  t
(** Spawn the pair, register its name, and register it with TMF as a
    participant feeding the named audit trail. *)

val store : t -> Tandem_db.Store.t

val lock_table : t -> Tandem_lock.Lock_table.t

val add_file : t -> Tandem_db.Schema.file_def -> Tandem_db.File.t
(** Create (this volume's partition of) a file. *)

val file : t -> string -> Tandem_db.File.t option

val is_up : t -> bool
(** Test hook: whether the pair has a live primary. *)

val audit_buffer_depth : t -> int
(** Test hook: images generated but not yet shipped to the audit trail. *)

type reply_slots

val reply_slots : t -> reply_slots
(** Test hook: the duplicate-detection state, the op_id and reply of each
    requester's newest completed data request, so a path retry replays
    instead of executing twice. Tests bound what it retains. *)

val rollforward_target : t -> Tmf.Rollforward.target
(** Snapshot/restore/redo hooks over this volume's store for ROLLFORWARD. *)

val simulate_total_failure : t -> unit
(** Drop the volume's volatile state (cache, current images, buffered
    audit, locks) down to what was physically flushed — the data-level
    effect of losing both processors. *)
