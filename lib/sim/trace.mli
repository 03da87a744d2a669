(** In-simulation event tracing.

    Each engine run keeps a bounded ring of trace entries (simulated time,
    subsystem tag, message). Tests assert on the ring; the CLI prints it.
    Tracing is cheap when disabled: the [emit] formatting thunk is
    only forced for enabled subsystems. *)

type t

type entry = { time : Sim_time.t; subsystem : string; message : string }

val create : ?capacity:int -> Engine.t -> t
(** [create engine] is a trace ring of [capacity] entries (default 4096). *)

val enable : t -> string -> unit
(** Enable a subsystem tag. The pseudo-tag ["*"] enables everything. *)

val emit : t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [emit t subsystem fmt ...] records an entry if [subsystem] is enabled. *)

val entries : t -> entry list
(** Recorded entries, oldest first. *)

val find : t -> subsystem:string -> substring:string -> entry option
(** Test hook: first entry of [subsystem] whose message contains [substring]. *)

val count : t -> subsystem:string -> int
(** Test hook: entries recorded for [subsystem]. *)

val pp_entry : Format.formatter -> entry -> unit
