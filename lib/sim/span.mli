(** Transaction-scoped observability: one span per transid.

    A span records the transaction's lifecycle stamps — BEGIN, end of local
    phase one, start of phase two (or backout) and final resolution — plus
    per-transaction event counts (messages, prepares, safe-delivery
    phase-two messages, forced audit writes, lock waits, restarts, undo
    images applied). The TMF/ENCOMPASS layers feed these at their existing
    emit points; experiments and the [tandem stats]/[tandem trace] CLI read
    them back.

    The registry is shared by every node of a simulated network (transids
    are network-unique), bounded: finished spans live in a ring of
    [capacity] entries, the oldest half dropped on overflow. Events against
    ids the registry no longer knows are silently ignored — replayed
    phase-two deliveries and stray lock owners must not grow it.

    The ring is flat: an id, an outcome and fourteen ints a slot in
    arrays allocated by the first {!finish} and doubled up to [capacity],
    so once it is full a finished span allocates nothing and holds no
    record.
    Late events against a finished span update its slot in place; the
    readers build [span] records from the slots. *)

type t

type outcome = Pending | Committed | Aborted of string

type span = {
  span_id : string; (* the transid in its string form *)
  begin_at : Sim_time.t;
  mutable phase1_at : Sim_time.t option;
  mutable phase2_at : Sim_time.t option;
  mutable backout_at : Sim_time.t option;
  mutable end_at : Sim_time.t option;
  mutable outcome : outcome;
  mutable messages : int; (* transaction-attributed request/reply messages *)
  mutable prepares : int; (* phase-one prepares sent to child nodes *)
  mutable phase2_msgs : int; (* safe-delivery phase-two messages queued *)
  mutable forced_writes : int; (* audit-trail forces on the commit/abort path *)
  mutable lock_waits : int; (* lock requests that had to queue *)
  mutable restarts : int; (* automatic TCP restarts charged to this transid *)
  mutable images_undone : int; (* before-images applied by backout *)
  mutable remote_nodes : int; (* nodes registered by remote-begin *)
  mutable state_broadcasts : int; (* per-processor state-table broadcasts *)
}

val create : ?capacity:int -> Engine.t -> t
(** [capacity] (default 4096) bounds the finished-span ring; it must be
    positive. *)

val start : t -> string -> span
(** Begin (or return the already-active) span for the transid. *)

val find : t -> string -> span option
(** Test hook: active first, then the finished ring. A finished span is returned
    as a snapshot of its slot: changing that record changes nothing here. *)

val finish : t -> string -> outcome -> span option
(** Stamp [end_at], record the outcome and move the span to the finished
    ring. Returns [None] if the span was not active — a second resolution
    never overwrites the first. *)

(** {1 Emit points} — all no-ops on unknown ids. *)

val mark_phase1 : t -> string -> unit
val mark_phase2 : t -> string -> unit
val mark_backout : t -> string -> unit

val add_messages : t -> string -> int -> unit
val incr_prepares : t -> string -> unit
val incr_phase2_msgs : t -> string -> unit
val incr_forced_writes : t -> string -> unit
val incr_lock_waits : t -> string -> unit
val incr_restarts : t -> string -> unit
val add_images_undone : t -> string -> int -> unit
val incr_remote_nodes : t -> string -> unit
val add_state_broadcasts : t -> string -> int -> unit

(** {1 Reading back} *)

val duration : span -> Sim_time.span option
(** [end_at - begin_at] once finished. *)

val active_count : t -> int
(** Test hook: spans started and not finished. *)

val finished : t -> span list
(** Oldest first. *)

val finished_count : t -> int
(** Test hook: spans held in the finished ring. *)

val started_total : t -> int
(** Test hook: spans started since creation. *)

val committed_total : t -> int
(** Test hook: spans finished committed since creation. *)

val aborted_total : t -> int
(** Test hook: spans finished aborted since creation. *)

val slowest : ?n:int -> t -> span list
(** The [n] (default 10) longest finished spans, slowest first. *)

val abort_reasons : t -> (string * int) list
(** Test hook: distinct abort/backout reasons with counts, most frequent
    first. *)

(** {1 Rendering} *)

val outcome_to_string : outcome -> string

val pp_summary : ?top:int -> Format.formatter -> t -> unit
(** Totals, the slowest transactions and the backout-reason census. *)

val to_json : span -> Json.t
(** Test hook: one span as JSON. *)

val summary_json : ?top:int -> t -> Json.t
