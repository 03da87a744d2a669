(** One volume's lock table.

    Concurrency control in ENCOMPASS is decentralized: each DISCPROCESS
    keeps the locks for the records and files on its own volume and nothing
    else — there is no central lock manager. This module is that per-volume
    table. Two granularities exist, file and record, both exclusive-mode
    only. Waiters queue FIFO; deadlock detection is by timeout, the interval
    being given with each request (a timed-out requester is expected to have
    its transaction restarted).

    Owners are opaque strings — the TMF layer passes rendered transids.

    The table is indexed for the TMF hot paths (complexity contracts in
    docs/PERFORMANCE.md): a per-owner resource index makes [release_all] and
    [locks_of] O(locks held), and waiters queue per file so a release
    inspects only the queues of files the finishing owner touched. *)

type t

type resource =
  | File_lock of string
  | Record_lock of { file : string; key : string }
      (** Record locks name the *primary key* of a logical record; there is
          no block- or index-level locking. *)

val pp_resource : Format.formatter -> resource -> unit
(** Test hook: renders a resource for messages. *)

val create :
  ?spans:Tandem_sim.Span.t ->
  Tandem_sim.Engine.t ->
  metrics:Tandem_sim.Metrics.t ->
  name:string ->
  t
(** [spans], when given, charges lock waits to the owning transaction's
    span (owners are rendered transids in the TMF stack). *)

val acquire :
  t ->
  owner:string ->
  timeout:Tandem_sim.Sim_time.span ->
  resource ->
  [ `Granted | `Timeout ]
(** Block the calling fiber until the lock is granted or the timeout
    expires. Re-acquiring a lock already held (directly, or implied by a
    file lock on the record's file) is granted immediately. *)

val try_acquire : t -> owner:string -> resource -> bool
(** Non-blocking variant. *)

val release_all : t -> owner:string -> unit
(** Release every lock the owner holds and wake newly-grantable waiters —
    the phase-two / post-backout unlock. *)

val holder : t -> resource -> string option

val locks_of : t -> owner:string -> resource list
(** Test hook: every resource the owner holds, in no fixed order. *)

val reset : t -> unit
(** Drop every lock and waiter without waking anyone — lock tables are
    volatile and die with their node. *)

val locked_count : t -> int

val waiting_count : t -> int
