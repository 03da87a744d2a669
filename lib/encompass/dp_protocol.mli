(** The DISCPROCESS request/reply protocol.

    Every data-base access travels as one of these messages. [op_id] is a
    network-unique, rising number for the *logical* operation: a requester
    retrying after a path failure reuses it. The DISCPROCESS keeps one reply
    slot per requester, the op_id and reply of its newest completed data
    request: a retry with that op_id replays the saved reply instead of
    executing twice, and an older op_id is refused unexecuted, since a
    requester awaits each reply before sending its next request. [transid]
    is the current process transid the File System appended ([None] for
    non-transactional access to unaudited files). *)

type op_meta = {
  op_id : int;
  transid : Tmf.Transid.t option;
  lock_timeout : Tandem_sim.Sim_time.span;
}

type error =
  | Lock_timeout
  | Duplicate
  | Not_found
  | Tx_rejected  (** Transaction not in a state that may do work here. *)
  | Volume_down
  | Security_violation
  | Bad_request of string

val pp_error : Format.formatter -> error -> unit

type Tandem_os.Message.payload +=
  | Dp_read of { op : op_meta; file : string; key : string; lock : bool }
  | Dp_insert of { op : op_meta; file : string; key : string; payload : string }
  | Dp_update of { op : op_meta; file : string; key : string; payload : string }
  | Dp_delete of { op : op_meta; file : string; key : string }
  | Dp_append of { op : op_meta; file : string; payload : string }
  | Dp_next of { op : op_meta; file : string; after : string; inclusive : bool }
  | Dp_lock_file of { op : op_meta; file : string }
  | Dp_lookup_index of {
      op : op_meta;
      file : string;
      index : string;
      alternate : string;
    }
  | Dp_flush_audit of Tmf.Transid.t
  | Dp_release of Tmf.Transid.t
  | Dp_undo of Tandem_audit.Audit_record.image
  | Dp_ok  (** undo/lock acknowledgements *)
  | Dp_flushed of int  (** flush acknowledgement: number of images shipped *)
  | Dp_value of string option  (** read result *)
  | Dp_done of { key : string }  (** mutation result (key echoes appends) *)
  | Dp_pair of (string * string) option
  | Dp_keys of string list  (** next-record result *)
  | Dp_error of error
