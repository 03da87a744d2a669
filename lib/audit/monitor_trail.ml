open Tandem_disk

type disposition = Committed | Aborted

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  table : (string, disposition) Hashtbl.t;
  mutable history : (string * disposition) list; (* newest first *)
  staged : (string, unit) Hashtbl.t; (* being forced right now *)
  unforced : (string, unit) Hashtbl.t; (* recorded but not yet on oxide *)
}

let create ?(force_window = 0) volume =
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    table = Hashtbl.create 64;
    history = [];
    staged = Hashtbl.create 8;
    unforced = Hashtbl.create 8;
  }

let record t ~transid disposition =
  if Hashtbl.mem t.table transid || Hashtbl.mem t.staged transid then
    invalid_arg ("Monitor_trail.record: duplicate disposition for " ^ transid);
  Hashtbl.replace t.staged transid ();
  (* The write carries every disposition recorded before it was asked for;
     one recorded while it is in flight waits for the next force. *)
  let covered = List.of_seq (Hashtbl.to_seq_keys t.unforced) in
  (* The transaction commits at the instant its record is on oxide; the
     group-commit daemon batches concurrent completion records into one
     physical write. A recorder killed mid-force (its processor failed)
     never recorded anything: nobody observed the disposition, so the
     takeover path may still resolve the transaction either way. *)
  (match Force_daemon.force t.daemon with
  | () -> ()
  | exception e ->
      Hashtbl.remove t.staged transid;
      raise e);
  Hashtbl.remove t.staged transid;
  List.iter (Hashtbl.remove t.unforced) covered;
  Hashtbl.replace t.table transid disposition;
  t.history <- (transid, disposition) :: t.history

let record_unforced t ~transid disposition =
  if Hashtbl.mem t.table transid || Hashtbl.mem t.staged transid then
    invalid_arg ("Monitor_trail.record: duplicate disposition for " ^ transid);
  Hashtbl.replace t.unforced transid ();
  Hashtbl.replace t.table transid disposition;
  t.history <- (transid, disposition) :: t.history

let crash t =
  let lost = Hashtbl.length t.unforced in
  if lost > 0 then begin
    Hashtbl.iter (fun transid () -> Hashtbl.remove t.table transid) t.unforced;
    t.history <-
      List.filter
        (fun (transid, _) -> not (Hashtbl.mem t.unforced transid))
        t.history
  end;
  Hashtbl.reset t.unforced;
  lost

let disposition_of t ~transid = Hashtbl.find_opt t.table transid

let count t disposition =
  Hashtbl.fold
    (fun _ d acc -> if d = disposition then acc + 1 else acc)
    t.table 0

let entries t = List.rev t.history
