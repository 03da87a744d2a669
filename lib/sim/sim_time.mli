(** Simulated time.

    Time is an absolute instant measured in integer microseconds since the
    start of the simulation; [span] is a duration in the same unit. Integer
    microseconds keep the simulation fully deterministic (no floating-point
    accumulation) while resolving every latency in the modelled 1981 hardware
    (bus transfers are a few microseconds, disc accesses tens of
    milliseconds). *)

type t = int
(** Absolute instant, microseconds since simulation start. *)

type span = int
(** Duration in microseconds. *)

val zero : t

val microseconds : int -> span
val milliseconds : int -> span
val seconds : int -> span
val minutes : int -> span

val to_seconds_float : span -> float

val add : t -> span -> t
val diff : t -> t -> span

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Renders with an adaptive unit, e.g. ["17.250ms"], ["2.000s"]. *)

val to_string : t -> string
