(** The typed fault taxonomy — every failure the chaos harness can inject.

    Each constructor names one injectable event against a booted
    {!Tandem_encompass.Cluster}. Faults come in crash/repair pairs so a
    schedule can always be drained back to a healthy cluster before the
    invariant checker runs; docs/FAULT_MODEL.md maps each kind to the paper
    mechanism it exercises and the recovery path that must survive it. *)

type mirror = [ `M0 | `M1 ]
(** One drive of a mirrored volume pair. *)

type controller = [ `A | `B ]
(** One of a volume's dual-ported I/O controllers. *)

type bus = [ `X | `Y ]
(** One of a node's dual interprocessor buses. *)

type t =
  | Cpu_crash of { node : Tandem_os.Ids.node_id; cpu : Tandem_os.Ids.cpu_id }
      (** Processor module failure: every process on the processor dies;
          process-pairs take over after the I'm-alive interval. Crashing the
          primary processor of a DISCPROCESS or TCP pair is the paper's
          single-module-failure takeover case. *)
  | Cpu_restore of { node : Tandem_os.Ids.node_id; cpu : Tandem_os.Ids.cpu_id }
      (** Reload a failed processor; pairs re-create their backups. *)
  | Node_crash of { node : Tandem_os.Ids.node_id }
      (** Total node failure (the multiple-module case): volatile state of
          every volume, unforced audit, lock tables and the transaction
          registry are lost. An archive copy is taken just before the crash
          so {!Node_recover} can run ROLLFORWARD. *)
  | Node_recover of { node : Tandem_os.Ids.node_id }
      (** ROLLFORWARD the crashed node from the archive taken at its
          {!Node_crash}; redoes committed after-images and resolves in-doubt
          transactions against surviving monitor trails. *)
  | Drive_failure of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      drive : mirror;
    }  (** Lose one mirror; service continues on the survivor. *)
  | Drive_revive of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      drive : mirror;
      blocks : int;
    }
      (** REVIVE the failed mirror: a [blocks]-transfer background copy pass
          from the survivor while normal service continues. *)
  | Controller_failure of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      controller : controller;
    }  (** Lose one I/O controller; the dual-ported path survives. *)
  | Controller_restore of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      controller : controller;
    }
  | Bus_failure of { node : Tandem_os.Ids.node_id; bus : bus }
      (** Fail one interprocessor bus; traffic continues on the other. *)
  | Bus_restore of { node : Tandem_os.Ids.node_id; bus : bus }
  | Link_failure of { a : Tandem_os.Ids.node_id; b : Tandem_os.Ids.node_id }
      (** Fail a data-communications line. EXPAND re-routes if another path
          exists; otherwise the end-to-end protocol retransmits and
          eventually drops — the bounded message loss the TMP's unilateral
          abort and safe-delivery machinery exist for. *)
  | Link_restore of { a : Tandem_os.Ids.node_id; b : Tandem_os.Ids.node_id }
  | Partition of {
      group_a : Tandem_os.Ids.node_id list;
      group_b : Tandem_os.Ids.node_id list;
    }  (** Fail every link joining the two groups. *)
  | Heal_partition  (** Restore every failed link in the network. *)
  | Link_degrade of {
      a : Tandem_os.Ids.node_id;
      b : Tandem_os.Ids.node_id;
      factor : int;
    }
      (** Multiply the link's latency by [factor]: message delay without
          reordering (per-(src,dst) FIFO is preserved), the degradation
          EXPAND's guarantees allow. *)
  | Link_repair of { a : Tandem_os.Ids.node_id; b : Tandem_os.Ids.node_id }
      (** Restore the link's nominal latency. *)

val kind : t -> string
(** The stable slug of the fault's kind ("cpu_crash", "drive_revive", …) —
    the label under [chaos.faults_injected{kind=…}] and the key of the
    docs/FAULT_MODEL.md taxonomy table. *)

val to_string : t -> string
(** Byte-stable one-line rendering; {!Schedule.to_string} concatenates these,
    and the determinism contract (same seed ⇒ identical schedule) is checked
    against the concatenation. *)
