(** The Terminal Control Process.

    A TCP is a process-pair supervising the interleaved execution of one
    screen program per terminal (up to 32 terminals). Screen input is
    checkpointed to the backup when accepted, so after a takeover the
    interrupted transactions are backed out and re-executed from
    BEGIN-TRANSACTION without re-entering the input. The TCP enforces the
    configurable transaction restart limit. *)

type t

val spawn :
  net:Tandem_os.Net.t ->
  tmf:Tmf.t ->
  node:Tandem_os.Node.t ->
  name:string ->
  lookup_class:(string -> (Tandem_os.Ids.node_id * int) option) ->
  primary_cpu:Tandem_os.Ids.cpu_id ->
  backup_cpu:Tandem_os.Ids.cpu_id ->
  terminals:int ->
  program:Screen_program.t ->
  t
(** [lookup_class] resolves a server-class name to its node and size (the
    cluster provides it). [terminals] must be 1..32. *)

val submit : t -> terminal:int -> string -> unit
(** Deliver one screen input to a terminal; it queues behind earlier
    inputs. O(1). *)

val terminal_count : t -> int

val last_output : t -> terminal:int -> string option

val completed : t -> int
(** Transactions carried to completion (committed). *)

val program_aborts : t -> int
(** Programs ended by ABORT-TRANSACTION (no restart). *)

val failures : t -> int
(** Inputs abandoned after exceeding the restart limit. *)

val restarts : t -> int
(** Total automatic restarts performed. *)
