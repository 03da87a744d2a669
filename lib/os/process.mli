(** Simulated processes.

    A process lives on one processor, owns a mailbox, and runs one or more
    fibers. Killing a process (normally as a consequence of its processor
    failing) kills its fibers, wakes parked receivers with
    [Fiber.Killed], and silently discards any message later addressed to
    it — the sender learns of the death only through timeout, as on the real
    machine. *)

type t

val create :
  Tandem_sim.Engine.t -> pid:Ids.pid -> name:string -> cpu:Cpu.t -> t
(** Create without starting any fiber (see {!start}). Normally called via
    [Node.spawn]. *)

val start : t -> (t -> unit) -> unit
(** Run the process body as a fresh fiber. *)

val spawn_fiber : t -> (unit -> unit) -> unit
(** Add an auxiliary fiber to a live process (used for per-terminal threads
    inside a TCP, for per-request fibers in a server, and for takeover
    logic). Finished fibers are dropped as later ones are spawned, so a
    process holds O(live) fibers however many it has run. *)

val pid : t -> Ids.pid

val name : t -> string

val cpu : t -> Cpu.t

val mailbox : t -> Mailbox.t

val is_alive : t -> bool

val kill : t -> unit

val deliver : t -> Message.t -> unit
(** Hand an arriving message to the process: replies matching an outstanding
    RPC complete it directly; everything else goes to the mailbox. Dropped if
    the process is dead. *)

val expect_reply : t -> corr:int -> (Message.payload -> unit) -> unit
(** Register an RPC completion for correlation number [corr]. *)

val forget_reply : t -> corr:int -> unit

val receive : ?filter:(Message.t -> bool) -> t -> Message.t
(** Blocking receive from the process mailbox (inside one of its fibers). *)
