open Tandem_disk
module Transid = Tandem_sim.Transid

type disposition = Committed | Aborted

(* A disposition's value is [order lsl 2 lor unforced lsl 1 lor bit]:
   [order] counts records in the order they became visible, so [entries]
   sorts by it; [unforced] is set by [record_unforced]; [bit] is the
   disposition. Every record ordered below [covered] is on oxide: a forced
   write carries every disposition recorded before it was asked for.

   A transid is stored as one int cell [seq lsl 32 lor value] in the run
   of its (home, cpu): the run is sorted by [seq] and searched by
   bisection. Transids arrive nearly in sequence order, so an insert
   shifts only the few cells above it. [Transid.make] keeps [seq] below
   2^30, so a cell fits in 62 bits. *)
type run = { mutable cells : int array; mutable length : int }

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  mutable runs : run array array; (* [runs.(home).(cpu)] *)
  mutable next_order : int;
  mutable covered : int;
  staged : (string, unit) Hashtbl.t;
      (* by [Transid.to_string]: being forced right now *)
}

let max_order = 1 lsl 30

let value_mask = (max_order lsl 2) - 1 (* a value fits the low 32 bits of a cell *)

let cell_value cell = cell land value_mask

let create ?(force_window = 0) volume =
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    runs = [||];
    next_order = 0;
    covered = 0;
    staged = Hashtbl.create 8;
  }

let bit = function Committed -> 0 | Aborted -> 1

let unforced_flag = 2

let disposition_of_value value = if value land 1 = 0 then Committed else Aborted

let empty_run = { cells = [||]; length = 0 }

let find_run t { Transid.home; cpu; _ } =
  if home < Array.length t.runs && cpu < Array.length t.runs.(home) then
    t.runs.(home).(cpu)
  else empty_run

(* [a] grown to at least [n] slots, the new ones [filler]. *)
let widen a n filler =
  if n <= Array.length a then a
  else begin
    let grown = Array.make n filler in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

let run_for_insert t { Transid.home; cpu; _ } =
  t.runs <- widen t.runs (home + 1) [||];
  t.runs.(home) <- widen t.runs.(home) (cpu + 1) empty_run;
  if t.runs.(home).(cpu) == empty_run then
    t.runs.(home).(cpu) <- { cells = Array.make 8 0; length = 0 };
  t.runs.(home).(cpu)

(* The index of the first cell whose sequence is not below [seq]. *)
let search run seq =
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if run.cells.(mid) lsr 32 < seq then bisect (mid + 1) hi else bisect lo mid
  in
  (* Appends are the common case: check the last cell first. *)
  if run.length = 0 || run.cells.(run.length - 1) lsr 32 < seq then run.length
  else bisect 0 run.length

(* The transid's value, or -1 if it has none. *)
let value_of t transid =
  let run = find_run t transid and seq = transid.Transid.seq in
  let i = search run seq in
  if i < run.length && run.cells.(i) lsr 32 = seq then cell_value run.cells.(i)
  else -1

let check_new t transid =
  let key = Transid.to_string transid in
  if value_of t transid >= 0 || Hashtbl.mem t.staged key then
    invalid_arg ("Monitor_trail.record: duplicate disposition for " ^ key)

let add t transid flags =
  if t.next_order >= max_order then failwith "Monitor_trail: order overflow";
  let value = (t.next_order lsl 2) lor flags in
  t.next_order <- t.next_order + 1;
  let run = run_for_insert t transid and seq = transid.Transid.seq in
  let i = search run seq in
  if run.length = Array.length run.cells then
    run.cells <- widen run.cells (2 * run.length) 0;
  Array.blit run.cells i run.cells (i + 1) (run.length - i);
  run.cells.(i) <- (seq lsl 32) lor value;
  run.length <- run.length + 1

let record t ~transid disposition =
  check_new t transid;
  let key = Transid.to_string transid in
  Hashtbl.replace t.staged key ();
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
      Hashtbl.remove t.staged key;
      raise e);
  Hashtbl.remove t.staged key;
  t.covered <- Int.max t.covered covers;
  add t transid (bit disposition)

let record_unforced t ~transid disposition =
  check_new t transid;
  add t transid (unforced_flag lor bit disposition)

let lost t value = value land unforced_flag <> 0 && value lsr 2 >= t.covered

let crash t =
  let dropped = ref 0 in
  Array.iter
    (Array.iter (fun run ->
         let kept = ref 0 in
         for i = 0 to run.length - 1 do
           let cell = run.cells.(i) in
           if lost t (cell_value cell) then incr dropped
           else begin
             run.cells.(!kept) <- cell;
             incr kept
           end
         done;
         run.length <- !kept))
    t.runs;
  !dropped

let disposition_of t ~transid =
  let value = value_of t transid in
  if value < 0 then None
  else if value land 1 = 0 then Some Committed
  else Some Aborted

let count t disposition =
  let b = bit disposition in
  let n = ref 0 in
  Array.iter
    (Array.iter (fun run ->
         for i = 0 to run.length - 1 do
           if run.cells.(i) land 1 = b then incr n
         done))
    t.runs;
  !n

let entries t =
  let acc = ref [] in
  Array.iteri
    (fun home cpus ->
      Array.iteri
        (fun cpu run ->
          for i = 0 to run.length - 1 do
            let cell = run.cells.(i) in
            acc :=
              (cell_value cell, Transid.make ~home ~cpu ~seq:(cell lsr 32))
              :: !acc
          done)
        cpus)
    t.runs;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
  |> List.map (fun (value, transid) -> (transid, disposition_of_value value))
