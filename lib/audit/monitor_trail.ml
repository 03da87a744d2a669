open Tandem_disk

type disposition = Committed | Aborted

(* [table] maps a transid to [order lsl 2 lor unforced lsl 1 lor bit]:
   [order] counts records in the order they became visible, so [entries]
   sorts by it; [unforced] is set by [record_unforced]; [bit] is the
   disposition. Every record ordered below [covered] is on oxide: a forced
   write carries every disposition recorded before it was asked for. *)
type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  table : (string, int) Hashtbl.t;
  mutable next_order : int;
  mutable covered : int;
  staged : (string, unit) Hashtbl.t; (* being forced right now *)
}

let create ?(force_window = 0) volume =
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    table = Hashtbl.create 64;
    next_order = 0;
    covered = 0;
    staged = Hashtbl.create 8;
  }

let bit = function Committed -> 0 | Aborted -> 1

let unforced_flag = 2

let disposition_of_value value = if value land 1 = 0 then Committed else Aborted

let check_new t transid =
  if Hashtbl.mem t.table transid || Hashtbl.mem t.staged transid then
    invalid_arg ("Monitor_trail.record: duplicate disposition for " ^ transid)

let add t transid flags =
  Hashtbl.replace t.table transid ((t.next_order lsl 2) lor flags);
  t.next_order <- t.next_order + 1

let record t ~transid disposition =
  check_new t transid;
  Hashtbl.replace t.staged transid ();
  (* The write carries every disposition recorded before it was asked for;
     one recorded while it is in flight waits for the next force. *)
  let covers = t.next_order in
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
  t.covered <- Int.max t.covered covers;
  add t transid (bit disposition)

let record_unforced t ~transid disposition =
  check_new t transid;
  add t transid (unforced_flag lor bit disposition)

let crash t =
  let lost = ref 0 in
  Hashtbl.filter_map_inplace
    (fun _ value ->
      if value land unforced_flag <> 0 && value lsr 2 >= t.covered then begin
        incr lost;
        None
      end
      else Some value)
    t.table;
  !lost

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
