open Tandem_disk

type disposition = Committed | Aborted

(* [table] maps a transid to [order lsl 1 lor bit]: [order] counts records
   in the order they became visible, so [entries] sorts by it, and [bit] is
   the disposition. *)
type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  table : (string, int) Hashtbl.t;
  mutable next_order : int;
  staged : (string, unit) Hashtbl.t; (* being forced right now *)
  unforced : (string, unit) Hashtbl.t; (* recorded but not yet on oxide *)
}

let create ?(force_window = 0) volume =
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    table = Hashtbl.create 64;
    next_order = 0;
    staged = Hashtbl.create 8;
    unforced = Hashtbl.create 8;
  }

let bit = function Committed -> 0 | Aborted -> 1

let disposition_of_value value = if value land 1 = 0 then Committed else Aborted

let add t transid disposition =
  Hashtbl.replace t.table transid ((t.next_order lsl 1) lor bit disposition);
  t.next_order <- t.next_order + 1

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
  add t transid disposition

let record_unforced t ~transid disposition =
  if Hashtbl.mem t.table transid || Hashtbl.mem t.staged transid then
    invalid_arg ("Monitor_trail.record: duplicate disposition for " ^ transid);
  Hashtbl.replace t.unforced transid ();
  add t transid disposition

let crash t =
  let lost = Hashtbl.length t.unforced in
  Hashtbl.iter (fun transid () -> Hashtbl.remove t.table transid) t.unforced;
  Hashtbl.reset t.unforced;
  lost

let disposition_of t ~transid =
  Option.map disposition_of_value (Hashtbl.find_opt t.table transid)

let count t disposition =
  Hashtbl.fold
    (fun _ value acc -> if value land 1 = bit disposition then acc + 1 else acc)
    t.table 0

let entries t =
  Hashtbl.fold (fun transid value acc -> (value, transid) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (value, transid) -> (transid, disposition_of_value value))
