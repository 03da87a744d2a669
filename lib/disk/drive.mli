(** A single disc drive: a failure unit with a FIFO service queue.

    The drive serves one physical access at a time; a fiber performing I/O is
    delayed behind everything already queued. Contents live in the data-base
    layer — the drive models only timing, failure and accounting. *)

type t

val create :
  Tandem_sim.Engine.t ->
  name:string ->
  access_time:Tandem_sim.Sim_time.span ->
  t

val is_up : t -> bool

val mark_down : t -> unit

val mark_up : t -> unit

val io : t -> unit
(** Perform one physical access: the calling fiber sleeps until the drive has
    served it. Raises [Invalid_argument] if the drive is down — callers must
    check {!is_up} (the volume layer does). *)

val busy_until : t -> Tandem_sim.Sim_time.t
(** When the drive's queue drains (for choosing the less-busy mirror). *)
