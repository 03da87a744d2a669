(** Lightweight cooperative fibers over OCaml effects.

    All sequential protocol code in the simulation — terminal programs,
    servers, commit coordinators, the suspense monitor — is written in direct
    style inside a fiber. A fiber suspends by parking a [resume] callback
    somewhere (a timer, a mailbox waiter list, an RPC correlation table); the
    simulation engine later invokes the callback, and the fiber continues
    from the suspension point at the then-current simulated time.

    Killing models processor failure: a killed fiber never executes another
    instruction after its current suspension point. Kill is lazy — the parked
    [resume] is a no-op once the fiber is marked killed (the continuation is
    discontinued to release resources). Parking sites that must wake their
    fibers promptly on death (mailboxes) do so by resuming with
    [Error Killed]. *)

type t

exception Killed
(** Raised inside a fiber that is resumed after being killed; normally
    invisible to fiber code (the runner swallows it). *)

type 'a resume = ('a, exn) result -> unit
(** Completion callback handed to a parking site. Calling it more than once
    is safe: only the first call has effect. *)

val spawn : ?engine:Engine.t -> ?name:string -> (unit -> unit) -> t
(** [spawn body] starts a fiber executing [body] immediately (until its first
    suspension). An exception escaping [body] other than {!Killed} is
    re-raised to the scheduler — simulations are expected to be
    exception-free, so this aborts the run loudly.

    [engine] scopes the fiber's {!id} to that engine's simulation (each
    engine hands out the dense sequence 1, 2, 3, …). Without it, ids come
    from a domain-local counter — still race-free across domains, but
    interleaved between simulations sharing a domain, so long-lived
    components should pass their engine. *)

val suspend : ('a resume -> unit) -> 'a
(** [suspend park] parks the calling fiber; [park] receives the resume
    callback. Must be called from inside a fiber. *)

val kill : t -> unit
(** Mark the fiber dead. Idempotent. *)

val is_alive : t -> bool

val id : t -> int
(** Test hook: unique among the fibers of one engine. *)

val sleep : Engine.t -> Sim_time.span -> unit
(** Suspend the calling fiber for a simulated duration. *)

val parallel_iter :
  ?name:string -> workers:int -> ('a -> unit) -> 'a list -> unit
(** [parallel_iter ~workers f items] runs [f] over [items] on a pool of at
    most [workers] fibers draining one shared FIFO queue, and returns when
    every item is done. Must be called from inside a fiber (the caller parks
    until the pool drains). Scheduling is deterministic: workers are spawned
    in order and take items in queue order, so a given engine state always
    yields the same interleaving. If some [f] raises, the queue still
    drains, and the first exception (in completion order) is re-raised to
    the caller at the join. At one worker, or for one item, no fiber is
    spawned: the items run inline in the caller, in order, and an exception
    propagates at once. *)

val suspend_until :
  Engine.t ->
  timeout:Sim_time.span ->
  on_timeout:(unit -> exn) ->
  ('a resume -> unit) ->
  'a
(** [suspend_until engine ~timeout ~on_timeout park] is {!suspend} with an
    armed deadline: if nothing resumes the fiber within [timeout], it is
    resumed with [Error (on_timeout ())] ([on_timeout] may run loser
    cleanup, e.g. dropping a correlation-table entry, before producing the
    exception). A resume arriving first cancels the timer, so winning a
    race-style wait leaves no dead event in the queue. The timer is
    scheduled before [park] runs — the event order is identical to parking
    code that armed its own timer first. *)
