(** Application servers.

    A server is context-free and single-threaded: read the transaction
    request message, perform the data-base function, reply. Servers are
    grouped into classes; requesters address a class and the send is
    dispatched to one member. A class's size is set when it is created (F2
    scales it with the processor count); a member lost to a processor
    failure is respawned on a surviving processor. *)

type ctx = {
  server_process : Tandem_os.Process.t;
  files : File_client.t;
  transid : Tmf.Transid.t option;
      (** The current process transid, taken from the request message. *)
}

type server_error =
  | Transient of string
      (** The request failed for a reason a transaction restart cures (lock
          timeout, path failure). *)
  | Rejected of string  (** The application refuses the request. *)

type handler = ctx -> string -> (string, server_error) result

val map_file_error : File_client.error -> server_error
(** The conventional mapping: transient errors ask for
    RESTART-TRANSACTION, the rest reject the request. *)

type t
(** A server class. *)

val create_class :
  net:Tandem_os.Net.t ->
  files:File_client.t ->
  node:Tandem_os.Node.t ->
  name:string ->
  handler:handler ->
  initial:int ->
  unit ->
  t
(** Start [initial] members, placed round-robin over the node's up
    processors, registered as ["<name>-0"], ["<name>-1"], … *)

val node_id : t -> Tandem_os.Ids.node_id

val member_count : t -> int

val queued_requests : t -> int
(** Requests waiting in members' mailboxes right now. *)

(** {1 Requester side} *)

val send :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  tmf:Tmf.t ->
  ?transid:Tmf.Transid.t ->
  node:Tandem_os.Ids.node_id ->
  class_name:string ->
  members:int ->
  string ->
  (string, server_error) result
(** The SEND verb's transport: propagate the transid to the server's node,
    pick a member, and exchange request/reply. Path failures surface as
    [Transient]. *)
