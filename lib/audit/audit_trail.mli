(** An audit trail: a numbered sequence of audit files on a (mirrored)
    volume, whose creation and purging TMF manages.

    Appends are buffered in memory; [force] writes the buffered tail through
    to the volume (one forced physical write per buffered group — group
    commit). Only forced records survive a total node failure; everything
    buffered survives single-module failures because the appending
    AUDITPROCESS is a process-pair.

    Each audit file is kept as the bytes a disc file would hold: one
    append-only buffer of length-prefixed fields, an offset per record, and
    sequence numbers implicit in the record's position. {!Audit_record.t}
    values are built only when a caller reads records, with one exception:
    a transaction that has not been {!settle}d keeps its records as appended,
    so backout of a live transaction decodes nothing.

    The trail is indexed for the TMF hot paths (complexity contracts in
    docs/PERFORMANCE.md): [append] is O(1) amortized, [records_for] is
    O(records of that transaction) by a per-transaction back-link chain
    through the encoded records, [record_count_for] is O(1), and
    [records_from] is a per-file suffix slice. The index stays consistent
    through [crash] and [purge_files_before]. *)

type t

val create :
  Tandem_disk.Volume.t ->
  name:string ->
  ?records_per_file:int ->
  ?force_window:Tandem_sim.Sim_time.span ->
  unit ->
  t
(** [records_per_file] (default 512) sets the rollover point at which a new
    numbered audit file is started. [force_window] (default 0) is the
    group-commit accumulation window of the trail's force daemon. *)

val name : t -> string

val append : t -> transid:string -> Audit_record.image -> int
(** Buffer one record; returns its sequence number. No physical I/O. *)

val force : t -> unit
(** Write the buffered tail to the volume (no-op when already forced). The
    calling fiber pays the forced write. *)

val forced_up_to : t -> int
(** Highest sequence number safely on disc; [-1] initially. *)

val next_sequence : t -> int

val records_for : t -> transid:string -> Audit_record.t list
(** All records of one transaction, ascending — buffered tail included
    (transaction backout runs against the live trail). O(records of this
    transaction), not O(trail): an unsettled transaction's records come
    straight from the index, a settled one's are decoded along its chain. *)

val settle : t -> transid:string -> unit
(** The transaction is finished: drop its records' decoded copies, keeping
    only their encoding. Later reads decode. This only frees memory — every
    result is the same whether or not it was called, and records appended
    for the transaction afterwards are kept encoded only. *)

val record_count_for : t -> transid:string -> int
(** [List.length (records_for t ~transid)] in O(1) — the observability
    path's undo-image count, read straight from the index. *)

val records_from : t -> sequence:int -> Audit_record.t list
(** Forced records with sequence [>= sequence] — what ROLLFORWARD can read
    after a total failure. *)

val unforced_records : t -> Audit_record.t list
(** The volatile tail (appended, not yet forced), oldest first. A crash
    loses these records while a fuzzy archive still shows their writes, so
    an archive taken now must keep their images as loser candidates. *)

val crash : t -> unit
(** Total node failure: the unforced tail is lost. *)

val file_count : t -> int
(** Number of audit files written so far (including the current one). *)

val purge_files_before : t -> sequence:int -> int
(** Drop whole audit files entirely below the sequence number (they have
    been archived); returns how many files were purged. *)

val dependency_edges : t -> (string * string) list
(** Forced inter-transaction dependency edges [(from, to)], ascending by
    the dependent record's sequence: one edge wherever a transaction writes
    a (volume, file, key) whose previous surviving writer is a *different*
    transaction, so every pair of surviving records touching the same key
    is transitively connected — ROLLFORWARD's chain partitioning unions over
    these edges and may replay distinct components concurrently. Commit
    markers give no edges (their shared sentinel key would chain every
    fast-path commit together). Derived on demand in one pass over the
    forced records, oldest file first: [append] keeps no per-key state, and
    a caller pays O(forced trail). Only surviving records count, so after
    {!purge_files_before} an edge from a purged writer is not reported (the
    next surviving writers of its key stay connected). *)
