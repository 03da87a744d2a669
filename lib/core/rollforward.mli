(** ROLLFORWARD: recovery from total node failure.

    NonStop lets normal processing skip the quick-restart optimizations of
    conventional systems (data blocks are never forced at commit), so after
    the rare simultaneous failure of both processors of a pair the on-disc
    data base is torn. ROLLFORWARD reconstructs it from an occasional
    archived copy of the audited files plus the audit trails written since:
    the after-images of *committed* transactions are reapplied in order;
    transactions without a commit record are discarded (their updates are
    not in the archive and their images are skipped). For transactions that
    were in "ending" state at the failure and are homed elsewhere, the
    recovery negotiates with the home node's TMP for the disposition.

    The recovery targets (snapshot/restore/redo of each volume's contents)
    are provided by the data-management layer that owns the stores. *)

type target = {
  target_volume : string;
  take_snapshot : unit -> unit -> unit;
      (** Capture the volume's archived copy (blocks and file metadata);
          the returned thunk mounts it back. *)
  unflushed_images : unit -> Tandem_audit.Audit_record.image list;
      (** Audit images buffered in the disc process but not yet appended to
          the trail, newest first. A fuzzy archive shows these writes while
          a crash destroys their undo images, so the archive must carry
          them as unconditional loser candidates. *)
  redo : Tandem_audit.Audit_record.image -> unit;
  undo : Tandem_audit.Audit_record.image -> unit;
  prefetch : Tandem_audit.Audit_record.image -> unit;
      (** Read-only descent to the image's key to warm the volume cache.
          The chain-parallel replay runs prefetches for independent chains
          concurrently before any redo/undo is applied; implementations
          must not modify file contents or structure. *)
}

type archive

type t

type stats = {
  images_scanned : int;
  images_applied : int;
  images_undone : int;
  transactions_redone : int;
  transactions_discarded : int;
  in_doubt : Tandem_sim.Transid.t list;
      (** Transactions whose home node could not be reached for the
          disposition; their images were not applied. *)
}

val pp_stats : Format.formatter -> stats -> unit

val create : net:Tandem_os.Net.t -> state:Tmf_state.node_state -> t

val register_target : t -> target -> unit

val take_archive : t -> archive
(** Snapshot every registered target and note each trail's position. Can run
    during normal processing. Each trail keeps, from then on, every record
    this archive's recovery reads ({!Tandem_audit.Audit_trail.retain_from}). *)

val archive_trail_gap : t -> archive -> int
(** Forced audit records written since the archive (the redo workload). *)

val recover : t -> self:Tandem_os.Process.t -> archive -> stats
(** Restore the archive and reapply committed after-images. The config's
    [rollforward_parallelism] picks the chains (one per trail, or each
    trail's dependency chains) and the workers that apply them. Records the
    duration in [tmf.recovery_ms]. Runs in a fiber (disposition queries may
    cross the network). *)
