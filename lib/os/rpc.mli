(** Request/reply over the message system, in the style of the GUARDIAN File
    System's WRITEREAD: the requester's fiber blocks until the reply arrives
    or the timeout expires.

    [call_name] adds the File System's automatic path retry: the destination
    is re-resolved by name on every attempt, so after a process-pair
    takeover a retry transparently reaches the new primary — this is the
    mechanism that makes single-module failures invisible to requesters. *)

type error = [ `Timeout | `No_such_name ]

val pp_error : Format.formatter -> error -> unit

val call :
  Net.t ->
  self:Process.t ->
  dst:Ids.pid ->
  ?timeout:Tandem_sim.Sim_time.span ->
  Message.payload ->
  (Message.payload, error) result
(** Test hook: one request/reply exchange with a fixed destination pid. *)

val call_name :
  Net.t ->
  self:Process.t ->
  node:Ids.node_id ->
  name:string ->
  ?timeout:Tandem_sim.Sim_time.span ->
  ?retries:int ->
  Message.payload ->
  (Message.payload, error) result
(** Request/reply addressed by process name on a node, with automatic
    re-resolution and retry ([retries] defaults from the hardware config). *)

val reply : Net.t -> self:Process.t -> to_:Message.t -> Message.payload -> unit
(** Send the reply to a received request. *)
