(** The discrete-event simulation engine.

    A single engine instance drives one simulated Tandem network: it owns the
    virtual clock and the event queue. Components schedule closures to run at
    future instants; [run] executes them in timestamp order (FIFO among equal
    timestamps), advancing the clock discontinuously. Nothing in the
    simulation may consult wall-clock time — determinism is the foundation of
    every experiment. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh engine whose root random stream is seeded
    with [seed] (default 42). *)

val now : t -> Sim_time.t
(** Current simulated instant. *)

val rng : t -> Rng.t
(** The engine's root random stream. Subsystems should [Rng.split] it at
    set-up time rather than drawing from it during the run. *)

val alloc_fiber_id : t -> int
(** Next fiber id for this engine's simulation, starting at 1. Keeping the
    counter per engine (rather than a module-level ref) means two
    simulations — interleaved in one domain or running on two domains —
    each see the dense sequence 1, 2, 3, …; see {!Fiber.spawn}. *)

val schedule_at : t -> Sim_time.t -> (unit -> unit) -> handle
(** Test hook: [schedule_at t time action] runs [action] at [time]. Scheduling
    in the past raises [Invalid_argument]. *)

val schedule_after : t -> Sim_time.span -> (unit -> unit) -> handle
(** [schedule_after t span action] runs [action] [span] after [now]. *)

val post_at : t -> Sim_time.t -> (unit -> unit) -> unit
(** [schedule_at] without a handle, for fire-and-forget events that are
    never cancelled (scheduled message deliveries, local-hop dispatch).
    Skips the handle allocation on paths that would [ignore] it. *)

val post_after : t -> Sim_time.span -> (unit -> unit) -> unit
(** [schedule_after] without a handle; see {!post_at}. *)

val cancel : handle -> unit
(** Cancel a pending event; cancelling a fired or cancelled event is a
    no-op. Cancelled events are tombstoned and reclaimed in bulk once they
    outnumber live events, so mass cancellation stays amortized O(1) per
    event and the heap stays O(live). *)

val run : ?until:Sim_time.t -> t -> unit
(** [run t] executes events until the queue is empty, or — with [until] —
    until the next event would be later than [until], in which case the clock
    is advanced to exactly [until]. *)

val run_for : t -> Sim_time.span -> unit
(** [run_for t span] is [run t ~until:(now t + span)]. *)

val pending : t -> int
(** Number of live events waiting. Cancelled-but-unreaped tombstones are
    excluded: a cancelled timeout is not pending work. *)

val events_executed : t -> int
(** Total events executed since creation (a cheap progress/cost measure).
    Cancelled events never count — they never happened. *)

val events_cancelled : t -> int
(** Total events cancelled since creation (surfaced as the
    [sim.events_cancelled] counter in [tandem stats]). *)
