(** Identifiers for the simulated hardware and process name space.

    A Tandem network is a collection of nodes (systems); each node contains
    2–16 processor modules; each processor runs processes identified by a
    serial number. A [pid] is therefore globally unique and encodes the
    process's physical location — exactly the information the Tandem message
    system uses for routing. *)

type node_id = int
(** Network node (system) number. *)

type cpu_id = int
(** Processor number within a node, [0 .. cpus-1] (at most 16). *)

type pid = { node : node_id; cpu : cpu_id; serial : int }
(** Globally unique process identifier. *)

val pp_pid : Format.formatter -> pid -> unit
(** Renders as ["2:1.17"] (node:cpu.serial). *)

val equal_pid : pid -> pid -> bool

module Pid_tbl : Hashtbl.SeededS with type key = pid
(** A {!Tandem_sim.Tbl} keyed by pid. *)

val max_cpus_per_node : int
(** 16, per the hardware architecture. *)
