type op_meta = {
  op_id : int;
  transid : Tmf.Transid.t option;
  lock_timeout : Tandem_sim.Sim_time.span;
}

type error =
  | Lock_timeout
  | Duplicate
  | Not_found
  | Tx_rejected
  | Volume_down
  | Security_violation
  | Bad_request of string

let pp_error formatter = function
  | Lock_timeout -> Format.pp_print_string formatter "lock timeout"
  | Duplicate -> Format.pp_print_string formatter "duplicate key"
  | Not_found -> Format.pp_print_string formatter "record not found"
  | Tx_rejected -> Format.pp_print_string formatter "transaction rejected"
  | Volume_down -> Format.pp_print_string formatter "volume down"
  | Security_violation -> Format.pp_print_string formatter "security violation"
  | Bad_request m -> Format.fprintf formatter "bad request: %s" m

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
  | Dp_ok
  | Dp_flushed of int
  | Dp_value of string option
  | Dp_done of { key : string }
  | Dp_pair of (string * string) option
  | Dp_keys of string list
  | Dp_error of error
