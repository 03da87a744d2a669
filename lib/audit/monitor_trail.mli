(** The Monitor Audit Trail: each node's forced history of transaction
    completion statuses.

    A transaction commits at the instant its commit record is written here;
    the record is force-written, so a disposition once recorded survives any
    failure of the node. The manual-override procedure for a partitioned
    participant starts by consulting this trail on the home node.

    The trail keeps one int per transaction: its disposition, a flag for a
    record written without a force, and the order in which it was
    recorded, from which {!entries} rebuilds the history and {!crash} tells
    the unforced records that a later forced write carried from those it
    did not. A transid in the canonical ["home.cpu.seq"] form that
    [Transid.to_string] renders is held as that int beside its sequence
    number, in a sorted array per (home, cpu): a lookup is a binary
    search, and an insert shifts the entries of that (home, cpu) recorded
    with a higher sequence number. Any other string is a table entry of
    its own, so distinct strings stay distinct keys. *)

type t

type disposition = Committed | Aborted

val create : ?force_window:Tandem_sim.Sim_time.span -> Tandem_disk.Volume.t -> t
(** [force_window] (default 0) is the group-commit accumulation window of
    the trail's force daemon. *)

val record : t -> transid:string -> disposition -> unit
(** Force-write one completion record (the calling fiber pays the forced
    write). Recording a transaction twice raises [Invalid_argument] — a
    disposition is immutable. *)

val record_unforced : t -> transid:string -> disposition -> unit
(** Record a completion status without paying a force: used when the
    disposition's durability is carried by something else (an abort that
    restart re-derives by presumption; a fast-path commit whose marker rode
    the data-log force). The record is visible to [disposition_of] and
    [entries] immediately but is lost by [crash]. Duplicate recording raises
    [Invalid_argument], exactly as [record]. *)

val crash : t -> int
(** Simulate losing the node's memory: every disposition recorded with
    [record_unforced] since the last forced write disappears; forced records
    survive. Returns the number of records lost; O(entries), which is paid
    only at a total node failure. *)

val disposition_of : t -> transid:string -> disposition option

val count : t -> disposition -> int

val entries : t -> (string * disposition) list
(** Completion history, oldest first: sorted by recording order, so
    O(entries · log entries). *)
