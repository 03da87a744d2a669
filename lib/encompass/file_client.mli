(** The requester's view of the data base — the File System role.

    Operations are routed by the data dictionary: the key picks the
    partition, the partition names the node and volume, and the request goes
    to that volume's DISCPROCESS by name (so process-pair takeovers are
    invisible here). When a transid is supplied it is appended to the
    request automatically, and before the first transmission of that transid
    to a new node the remote-transaction-begin exchange runs — exactly the
    File System behaviour the paper describes. *)

type t

type error =
  | Data_error of Dp_protocol.error
  | Path_error of Tandem_os.Rpc.error  (** No reply (even after retries). *)
  | Tx_unreachable  (** Remote begin failed: participant node unreachable. *)

val pp_error : Format.formatter -> error -> unit

val is_transient : error -> bool
(** Errors that RESTART-TRANSACTION is the right answer to (lock timeout,
    path failures, transaction rejected). *)

val create :
  net:Tandem_os.Net.t ->
  tmf:Tmf.t ->
  dictionary:Tandem_db.Schema.t ->
  t

val read :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  Tandem_db.Key.t ->
  (string option, error) result
(** A read under a transid locks the record — locks on existing records
    are acquired at read time; a read without one takes no lock. *)

val insert :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  Tandem_db.Key.t ->
  string ->
  (unit, error) result

val update :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  Tandem_db.Key.t ->
  string ->
  (unit, error) result

val delete :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  Tandem_db.Key.t ->
  (unit, error) result

val append :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  string ->
  (Tandem_db.Key.t, error) result
(** Entry-sequenced append; returns the assigned entry key. *)

val next_after :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  Tandem_db.Key.t ->
  ((Tandem_db.Key.t * string) option, error) result
(** Next record in key order — crosses partition boundaries. *)

val lookup_index :
  t ->
  self:Tandem_os.Process.t ->
  ?transid:Tmf.Transid.t ->
  file:string ->
  index:string ->
  Tandem_db.Key.t ->
  (Tandem_db.Key.t list, error) result
(** Multi-key access: primary keys of records whose alternate key matches,
    gathered across every partition (each maintains the index entries for
    its own records). *)

val lock_file :
  t ->
  self:Tandem_os.Process.t ->
  transid:Tmf.Transid.t ->
  file:string ->
  (unit, error) result
(** Test hook: the paper's file-granularity lock on every partition of the
    file. No workload takes one. *)
