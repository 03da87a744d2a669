(** One chaos scenario and the report of one run of it.

    A scenario is a named recipe: boot a cluster, generate a fault schedule
    from the seed, run the closed-loop workload through the schedule, drain,
    and check invariants. Everything in the report is a pure function of
    [(seed, quick)] — {!fingerprint} is the byte-stable witness the
    determinism tests and [tandem chaos --verify-determinism] compare. *)

type report = {
  scenario : string;
  seed : int;
  quick : bool;
  schedule : string;  (** {!Schedule.to_string} of the injected schedule. *)
  faults : int;  (** Faults injected. *)
  fault_kinds : (string * int) list;  (** Per-kind injection counts. *)
  committed : int;  (** Transactions carried to completion. *)
  restarts : int;  (** Automatic TCP restarts. *)
  failures : int;  (** Inputs abandoned at the restart limit. *)
  events : int;  (** Engine events executed — the whole-run trajectory. *)
  verdict : Checker.verdict;
  metrics : Tandem_sim.Json.t;
      (** {!Metrics.to_json} of the cluster registry (registries
          {!Metrics.merge}d when a scenario runs several clusters). Not part
          of {!fingerprint} — the parallel-driver equality tests compare it
          separately. *)
}

type t = {
  name : string;
  description : string;
  paper : string;
      (** The paper mechanism the scenario exercises (for docs and
          [tandem chaos --list]). *)
  run : seed:int -> quick:bool -> report;
}

val run : t -> seed:int -> quick:bool -> report

val passed : report -> bool

val fingerprint : report -> string
(** Byte-stable rendering of the full report — schedule, counts and
    verdict. Two runs of a scenario with equal seeds must produce equal
    fingerprints; different seeds must produce different schedules. *)

val summary_line : report -> string
(** One [PASS/FAIL name seed=… faults=… …] line for matrix output. *)
