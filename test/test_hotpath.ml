(* Equivalence properties for the indexed hot paths.

   The audit trail, the lock table, the block cache and the block store were
   re-backed by indexes (per-transid record vectors, per-owner lock sets,
   per-file waiter queues, block-numbered arrays) purely for complexity;
   observable behaviour must not move. Each property drives the real
   structure and a naive specification model (for the cache and the store,
   the hashtable code they replaced) through the same random operation
   sequence and compares every observation. Unit tests pin the fast paths
   those indexes exist for, and a last test pins the parallel phase-one
   default: concurrent prepares must yield the very dispositions serial
   prepares do. *)

open Tandem_sim
open Tandem_audit
open Tandem_encompass

(* ------------------------------------------------------------------ *)
(* Audit trail vs naive list-backed model *)

module Trail_model = struct
  type t = {
    mutable files : Audit_record.t list list; (* oldest first, ascending *)
    mutable next_seq : int;
    mutable forced : int;
    mutable settled : string list;
    mutable floor : int;
    records_per_file : int;
  }

  let create ~records_per_file =
    {
      files = [ [] ];
      next_seq = 0;
      forced = -1;
      settled = [];
      floor = max_int;
      records_per_file;
    }

  let rec replace_last files file =
    match files with
    | [] -> assert false
    | [ _ ] -> [ file ]
    | f :: rest -> f :: replace_last rest file

  let current t = List.nth t.files (List.length t.files - 1)

  let all t = List.concat t.files

  let has_records t transid =
    List.exists (fun r -> String.equal r.Audit_record.transid transid) (all t)

  (* A transaction whose records are all gone is no longer settled: its
     next record starts a fresh, unsettled history. *)
  let forget_empty t =
    t.settled <- List.filter (has_records t) t.settled

  (* The oldest surviving record of every unsettled transaction. *)
  let unsettled_oldest t =
    List.fold_left
      (fun acc r ->
        let transid = r.Audit_record.transid in
        if List.mem transid t.settled || List.mem_assoc transid acc then acc
        else (transid, r.Audit_record.sequence) :: acc)
      [] (all t)
    |> List.map snd

  (* The trail's own rule, at each rollover: a closed file goes once it
     holds no unsettled transaction's oldest record, nothing unforced and
     nothing at or above the floor. *)
  let purge_unreadable t =
    let oldest = unsettled_oldest t in
    let closed = List.length t.files - 1 in
    let rec drop i = function
      | file :: rest
        when i < closed
             && List.for_all
                  (fun r ->
                    let s = r.Audit_record.sequence in
                    (not (List.mem s oldest)) && s <= t.forced && s < t.floor)
                  file ->
          drop (i + 1) rest
      | kept -> kept
    in
    t.files <- drop 0 t.files;
    forget_empty t

  let append t ~transid image =
    let sequence = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let record = { Audit_record.sequence; transid; image } in
    let file = current t @ [ record ] in
    t.files <- replace_last t.files file;
    if List.length file >= t.records_per_file then begin
      t.files <- t.files @ [ [] ];
      purge_unreadable t
    end;
    sequence

  let force t = t.forced <- t.next_seq - 1

  let crash t =
    t.files <-
      List.map
        (List.filter (fun r -> r.Audit_record.sequence <= t.forced))
        t.files;
    t.next_seq <- t.forced + 1;
    forget_empty t

  (* The oldest files go while they lie wholly below [sequence]. *)
  let purge t ~sequence =
    let rec drop = function
      | file :: rest
        when List.for_all (fun r -> r.Audit_record.sequence < sequence) file ->
          drop rest
      | kept -> kept
    in
    t.files <- (match drop t.files with [] -> [ [] ] | kept -> kept);
    forget_empty t

  let settle t ~transid =
    if has_records t transid && not (List.mem transid t.settled) then
      t.settled <- transid :: t.settled

  let retain_from t ~sequence =
    t.floor <- List.fold_left Int.min (Int.min t.floor sequence) (unsettled_oldest t)

  let records_for t ~transid =
    List.filter (fun r -> String.equal r.Audit_record.transid transid) (all t)

  let records_from t ~sequence =
    List.filter
      (fun r ->
        r.Audit_record.sequence >= sequence
        && r.Audit_record.sequence <= t.forced)
      (all t)

  let unforced_records t =
    List.filter (fun r -> r.Audit_record.sequence > t.forced) (all t)

  (* Consecutive distinct writers per key over the forced records, commit
     markers skipped: each record's edge comes from the newest earlier
     forced record on its key, when another transaction wrote it. *)
  let dependency_edges t =
    let data =
      List.filter
        (fun r ->
          r.Audit_record.sequence <= t.forced
          && not (Audit_record.is_commit_marker r.Audit_record.image))
        (all t)
    in
    let key r =
      let image = r.Audit_record.image in
      (image.Audit_record.volume, image.Audit_record.file, image.Audit_record.key)
    in
    List.concat_map
      (fun r ->
        let earlier =
          List.filter
            (fun p ->
              p.Audit_record.sequence < r.Audit_record.sequence
              && key p = key r)
            data
        in
        match List.rev earlier with
        | p :: _ when p.Audit_record.transid <> r.Audit_record.transid ->
            [ (p.Audit_record.transid, r.Audit_record.transid) ]
        | _ -> [])
      data
end

type trail_op =
  | Append of int * int (* transid pool index, key pool index *)
  | Force
  | Crash
  | Purge of int (* scaled into the live sequence range *)
  | Settle of int (* transid pool index *)
  | Archive of int (* a floor, scaled like [Purge] *)

let trail_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun i k -> Append (i, k)) (int_bound 3) (int_bound 3));
        (2, return Force);
        (1, return Crash);
        (1, map (fun s -> Purge s) (int_bound 100));
        (2, map (fun i -> Settle i) (int_bound 3));
        (1, map (fun s -> Archive s) (int_bound 100));
      ])

let trail_op_print = function
  | Append (i, k) -> Printf.sprintf "append t%d k%d" i k
  | Force -> "force"
  | Crash -> "crash"
  | Purge s -> Printf.sprintf "purge %d%%" s
  | Settle i -> Printf.sprintf "settle t%d" i
  | Archive s -> Printf.sprintf "archive %d%%" s

let transid_pool = [| "1.0.0"; "1.0.1"; "2.0.0"; "2.0.1" |]

(* Three data keys, so writers collide and dependency edges form, and the
   commit marker, which must give none. *)
let trail_image k =
  if k = 3 then Audit_record.commit_marker_image
  else
    {
      Audit_record.volume = "$DATA";
      file = "F";
      key = [| "a"; "b"; "c" |].(k);
      before = None;
      after = Some "x";
    }

let record_eq a b = a = b (* immutable scalars throughout *)

let records_agree indexed naive =
  List.length indexed = List.length naive && List.for_all2 record_eq indexed naive

(* The model applies the trail's purge rule, so the two hold the same files
   and every reader agrees: backout's [records_for] and [record_count_for]
   (of unsettled transactions, and of settled ones down to what survives),
   ROLLFORWARD's [records_from] at and above the floor, an archive's
   [unforced_records], and the dependency edges. *)
let trail_agrees trail model =
  let open Audit_trail in
  next_sequence trail = model.Trail_model.next_seq
  && forced_up_to trail = model.Trail_model.forced
  && file_count trail = List.length model.Trail_model.files
  && Array.for_all
       (fun transid ->
         let naive = Trail_model.records_for model ~transid in
         record_count_for trail ~transid = List.length naive
         && records_agree (records_for trail ~transid) naive)
       transid_pool
  && List.for_all
       (fun sequence ->
         records_agree (records_from trail ~sequence)
           (Trail_model.records_from model ~sequence))
       [
         0;
         3;
         model.Trail_model.forced;
         model.Trail_model.next_seq - 2;
         Int.min model.Trail_model.floor model.Trail_model.next_seq;
       ]
  && records_agree (unforced_records trail) (Trail_model.unforced_records model)
  && dependency_edges trail = Trail_model.dependency_edges model

(* Drive the trail and the model through [ops] in lockstep, comparing every
   observation after each op. *)
let trail_ops_agree ops =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$AVOL"
      ~access_time:(Sim_time.milliseconds 5)
  in
  let trail = Audit_trail.create volume ~name:"$AUDIT" ~records_per_file:3 () in
  let model = Trail_model.create ~records_per_file:3 in
  let ok = ref true in
  (* One fiber applies each op to both in lockstep ([force] suspends on
     the daemon, so the sequence needs the engine underneath it). *)
  ignore
    (Fiber.spawn (fun () ->
         List.iter
           (fun op ->
             (match op with
             | Append (i, k) ->
                 let transid = transid_pool.(i) in
                 let image = trail_image k in
                 let s1 = Audit_trail.append trail ~transid image in
                 let s2 = Trail_model.append model ~transid image in
                 if s1 <> s2 then ok := false
             | Force ->
                 Audit_trail.force trail;
                 Trail_model.force model
             | Crash ->
                 Audit_trail.crash trail;
                 Trail_model.crash model
             | Purge percent ->
                 let sequence = model.Trail_model.next_seq * percent / 100 in
                 ignore (Audit_trail.purge_files_before trail ~sequence);
                 Trail_model.purge model ~sequence
             | Settle i ->
                 Audit_trail.settle trail ~transid:transid_pool.(i);
                 Trail_model.settle model ~transid:transid_pool.(i)
             | Archive percent ->
                 let sequence = model.Trail_model.next_seq * percent / 100 in
                 Audit_trail.retain_from trail ~sequence;
                 Trail_model.retain_from model ~sequence);
             if not (trail_agrees trail model) then ok := false)
           ops));
  Engine.run engine;
  !ok

let prop_trail_matches_model =
  QCheck.Test.make
    ~name:
      "indexed audit trail = naive list model \
       (append/force/crash/purge/settle)"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map trail_op_print ops))
       QCheck.Gen.(list_size (1 -- 40) trail_op_gen))
    trail_ops_agree

(* One transaction's chain across three files: the oldest file purged, then
   the newest records lost to a crash. Its chain must read back the same
   with [settle] before, between or after those steps, or never. *)
let test_chain_straddles_purge_and_crash () =
  let ops =
    [
      Append (0, 0); Append (1, 1); Append (0, 2); Force;
      Append (0, 0); Append (2, 1); Append (0, 1); Force;
      Purge 50 (* sequence 3: the first file goes *);
      Append (0, 2); Append (0, 3); Crash;
      Append (0, 1); Force;
    ]
  in
  let settle_at k =
    List.concat (List.mapi (fun i op -> if i = k then [ Settle 0; op ] else [ op ]) ops)
  in
  List.iter
    (fun k ->
      if not (trail_ops_agree (settle_at k)) then
        Alcotest.failf "trail differs from the model with settle at op %d" k)
    (List.init (List.length ops + 1) Fun.id)

(* A closed file whose transactions are all settled stays while any of its
   records is unforced: a crash truncates exactly those, and an archive
   taken before then reads them as loser candidates. *)
let test_unforced_file_outlives_rollover () =
  let ops =
    [
      Append (0, 0); Append (0, 1); Append (0, 2) (* file 0 closes *);
      Settle 0; Append (1, 0); Append (1, 1); Append (1, 2) (* file 1 *);
      Settle 1; Append (2, 0); Append (2, 1); Append (2, 2) (* file 2 *);
      Crash; Append (3, 0); Force; Settle 3;
      Append (3, 1); Append (3, 2); Append (2, 0); Force;
    ]
  in
  if not (trail_ops_agree ops) then
    Alcotest.fail "trail differs from the model around unforced files"

(* An archive's floor is the oldest record of a transaction unsettled at
   the time, not the start of the file holding it: once a crash takes that
   record away, the older records beside it are unreadable and go at the
   next rollover. *)
let test_floor_at_oldest_live_record () =
  let ops =
    [
      Append (2, 2); Force; Settle 2;
      Append (1, 1); Append (1, 0) (* file 0 closes, pinned by t1 *);
      Archive 35 (* position 1 *); Append (0, 1); Crash;
      Append (0, 3); Force; Append (3, 2); Append (0, 1) (* file 1 closes *);
    ]
  in
  if not (trail_ops_agree ops) then
    Alcotest.fail "trail differs from the model after an archive and a crash"

(* The encoding round-trips every field: empty strings, NUL bytes, [None]
   and [Some] on both sides, fields long enough for multi-byte varint
   lengths, and more than 127 interned (volume, file) names, so name ids
   take two bytes too. Records are read back decoded, from the unforced
   tail and from settled chains, across random rollover sizes. *)
let field_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return "");
        (2, return "\000");
        (1, string_size ~gen:char (0 -- 3) >|= fun s -> s ^ "\000" ^ s);
        (4, string_size ~gen:printable (1 -- 12));
        (2, string_size ~gen:char (128 -- 300));
      ])

let name_pool = Array.init 200 (fun i -> (Printf.sprintf "$V%d" i, if i mod 2 = 0 then "F" else ""))

let image_of (name, key, before, after) =
  let volume, file = name_pool.(name) in
  { Audit_record.volume; file; key; before; after }

let record_gen =
  QCheck.Gen.(
    pair (int_bound 5)
      (quad (int_bound 199) field_gen (opt field_gen) (opt field_gen)))

let prop_encoding_round_trips =
  QCheck.Test.make ~name:"audit record encoding round-trips every field"
    ~count:100
    (QCheck.make
       QCheck.Gen.(pair (1 -- 8) (list_size (0 -- 60) record_gen)))
    (fun (records_per_file, appends) ->
      let engine = Engine.create () in
      let volume =
        Tandem_disk.Volume.create engine ~metrics:(Metrics.create ())
          ~name:"$AVOL" ~access_time:(Sim_time.milliseconds 5)
      in
      let trail = Audit_trail.create volume ~name:"$AUDIT" ~records_per_file () in
      (* Every name once first, so ids run past 127. *)
      let preamble =
        List.init 130 (fun name -> (5, (name, "k", None, Some "v")))
      in
      let expected =
        List.mapi
          (fun sequence (i, fields) ->
            let transid = Printf.sprintf "1.0.%d" i in
            let image = image_of fields in
            ignore (Audit_trail.append trail ~transid image);
            { Audit_record.sequence; transid; image })
          (preamble @ appends)
      in
      let for_transid transid =
        List.filter (fun r -> r.Audit_record.transid = transid) expected
      in
      let transids = List.init 6 (Printf.sprintf "1.0.%d") in
      Audit_trail.unforced_records trail = expected
      && List.for_all
           (fun transid ->
             Audit_trail.settle trail ~transid;
             Audit_trail.records_for trail ~transid = for_transid transid)
           transids
      && Audit_trail.unforced_records trail = expected)

(* Retention guard: what the trail keeps per appended record once its
   transaction is settled. A record lives in its audit file's bytes and its
   transaction's chain and nowhere else; a per-key or per-append side index
   (such as a dependency log kept at append time), or a decoded copy kept
   past [settle], would show as extra words per record. *)
let test_trail_retention_per_record () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$AVOL"
      ~access_time:(Sim_time.milliseconds 5)
  in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  let records = 10_000 in
  let transid i = Printf.sprintf "1.0.%d" (i / 4) in
  let words () = Obj.reachable_words (Obj.repr trail) in
  let before = words () in
  ignore
    (Fiber.spawn (fun () ->
         for i = 0 to records - 1 do
           ignore
             (Audit_trail.append trail ~transid:(transid i)
                {
                  Audit_record.volume = "$DATA";
                  file = "F";
                  key = Printf.sprintf "%012d" i;
                  before = None;
                  after = Some "x";
                })
         done;
         Audit_trail.force trail));
  Engine.run engine;
  for i = 0 to (records / 4) - 1 do
    Audit_trail.settle trail ~transid:(transid (4 * i))
  done;
  let per_record = float_of_int (words () - before) /. float_of_int records in
  (* Measured on OCaml 5.1.1: 7.23 words per record (the encoded bytes, an
     offset, a quarter of a transaction's index entry). Keeping each record
     decoded as well costs about 16 words more. *)
  let bound = 10. in
  if per_record > bound then
    Alcotest.failf "trail retains %.2f words per record (bound %.0f)"
      per_record bound

(* The same guard for the monitor trail: one int per disposition, no
   second copy of the history — for forced records, and for records
   written without a force that no forced write follows, as on a node
   whose every commit takes the fast path. *)
let test_monitor_retention_per_entry () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$MVOL"
      ~access_time:(Sim_time.milliseconds 5)
  in
  let monitor = Monitor_trail.create volume in
  let entries = 2_000 in
  let words () = Obj.reachable_words (Obj.repr monitor) in
  let disposition i =
    if i mod 3 = 0 then Monitor_trail.Aborted else Monitor_trail.Committed
  in
  let before = words () in
  ignore
    (Fiber.spawn (fun () ->
         for i = 0 to entries - 1 do
           Monitor_trail.record monitor
             ~transid:(Printf.sprintf "1.0.%d" i)
             (disposition i)
         done));
  Engine.run engine;
  let forced = words () in
  for i = entries to (2 * entries) - 1 do
    Monitor_trail.record_unforced monitor
      ~transid:(Printf.sprintf "1.0.%d" i)
      (disposition i)
  done;
  let per_entry from until =
    float_of_int (until - from) /. float_of_int entries
  in
  (* Measured on OCaml 5.1.1: 1.06 words per forced entry and 1.02 per
     unforced one (one int in the sorted array of (1, 0), which doubles as
     it fills, so up to 2). A table entry and key string per disposition
     cost 7.01 and 7.51; a second copy of the history in a list costs 6
     more. *)
  let bound = 3. in
  List.iter
    (fun (kind, per_entry) ->
      if per_entry > bound then
        Alcotest.failf "monitor trail retains %.2f words per %s entry (bound %.0f)"
          per_entry kind bound)
    [ ("forced", per_entry before forced); ("unforced", per_entry forced (words ())) ]

(* The same guard for a DISCPROCESS's duplicate detection: it keeps one
   saved reply per requester, however many requests they send. *)
let test_reply_slots_retention () =
  let cluster, _spec =
    Workload.build_bank ~seed:3 ~accounts:100 ~servers:[] ()
  in
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  let requesters = 4 and requests = 5_000 in
  let answered = ref 0 in
  for r = 1 to requesters do
    Cluster.run_client cluster ~node:1 ~cpu:(r - 1) (fun process ->
        for i = 1 to requests do
          match
            File_client.read (Cluster.files cluster) ~self:process
              ~file:Workload.account_file
              (Tandem_db.Key.of_int ((r * i) mod 100))
          with
          | Ok (Some _) -> incr answered
          | Ok None | Error _ -> ()
        done)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "every read answered" (requesters * requests) !answered;
  let words = Obj.reachable_words (Obj.repr (Discprocess.reply_slots dp)) in
  (* Measured on OCaml 5.1.1: 98 words for the four slots and their table.
     Keeping the last 16,384 replies by operation id instead holds about
     198k words here. *)
  let bound = 400 in
  if words > bound then
    Alcotest.failf "duplicate detection retains %d words for %d requests \
                    (bound %d)"
      words (requesters * requests) bound

(* The same guard for a metric sample of small integers, such as a
   boxcar's occupancy or a force batch's size: one count per distinct value,
   however many observations. *)
let test_sample_retention () =
  let s = Metrics.sample (Metrics.create ()) "batch" in
  let observations = 1_000_000 in
  for i = 0 to observations - 1 do
    Metrics.observe s (float_of_int (1 + (i * 7919 mod 64)))
  done;
  Alcotest.(check int) "every observation counted" observations
    (Metrics.sample_count s);
  let words = Obj.reachable_words (Obj.repr s) in
  (* Measured on OCaml 5.1.1: 106 words (the record and its counts). One
     float per observation holds 1,048,581. *)
  let bound = 300 in
  if words > bound then
    Alcotest.failf "sample retains %d words for %d observations (bound %d)"
      words observations bound

(* A whole cluster's registry: a three-node bank of inquiries and some
   debit-credits holds no more metric words after 4N transactions than
   after N. The one exception is the end-to-end latency sample, whose
   fractional milliseconds keep one float per transaction. *)
let test_registry_retention () =
  let cluster, spec =
    Workload.build_bank ~seed:5 ~nodes:3 ~accounts:150
      ~servers:[ `Bank 2; `Inquiry 2 ] ()
  in
  let inquiries =
    Array.init 3 (fun i ->
        Cluster.add_tcp cluster ~node:(i + 1)
          ~name:(Printf.sprintf "$TCP%d" (i + 1))
          ~terminals:2 ~program:Workload.balance_inquiry_program ())
  in
  let debit_credits =
    Cluster.add_tcp cluster ~node:2 ~name:"$TCPDC" ~terminals:2
      ~program:Workload.debit_credit_program ()
  in
  let rng = Rng.create ~seed:5 in
  let run transactions =
    for i = 0 to transactions - 1 do
      if i mod 10 = 0 then
        Tcp.submit debit_credits ~terminal:(i / 10 mod 2)
          (Workload.debit_credit_input rng spec ())
      else
        Tcp.submit inquiries.(i mod 3) ~terminal:(i / 3 mod 2)
          (Workload.balance_inquiry_input rng spec ())
    done;
    Cluster.run cluster
  in
  let registry = Cluster.metrics cluster in
  let integer_samples =
    [ "net.boxcar_occupancy"; "disk.force_batch_size"; "dp.checkpoint_batch_size" ]
  in
  let counts () =
    List.map
      (fun name -> Metrics.sample_count (Metrics.read_sample registry name))
      integer_samples
  in
  let words () =
    Obj.reachable_words (Obj.repr registry)
    - Obj.reachable_words
        (Obj.repr (Metrics.read_sample registry "encompass.tx_latency_ms"))
  in
  let n = 300 in
  run n;
  let counts_n = counts () and words_n = words () in
  run (3 * n);
  let counts_4n = counts () and words_4n = words () in
  List.iter2
    (fun name (before, after) ->
      if not (before > 0 && after > before) then
        Alcotest.failf "%s observed %d then %d times" name before after)
    integer_samples (List.combine counts_n counts_4n);
  Alcotest.(check int) "every transaction completed" (4 * n)
    (Array.fold_left (fun acc tcp -> acc + Tcp.completed tcp) 0 inquiries
    + Tcp.completed debit_credits);
  (* Measured on OCaml 5.1.1: 867 words after both runs. One float per
     observation grows from 5,293 to 18,733. *)
  if words_4n > words_n then
    Alcotest.failf "registry grew from %d to %d words between %d and %d \
                    transactions" words_n words_4n n (4 * n)

(* The whole cluster in the dc-hot shape: one node, two data volumes, and
   debit-credits only, so every commit takes the fast path and no forced
   monitor record or archive ever comes. What it holds after 4N
   transactions beyond what it held after N is bounded per transaction.
   The span registry is left out: its ring of 4,096 finished spans is
   allocated as it first fills and grows no further ("span ring" guards
   it). *)
let test_cluster_retention () =
  let cluster, spec =
    Workload.build_bank ~seed:11 ~volumes:[ 1; 1 ] ~accounts:1_000
      ~tellers:20 ~branches:10 ~servers:[ `Bank 8 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:8
      ~program:Workload.debit_credit_program ()
  in
  let rng = Rng.create ~seed:11 in
  let run transactions =
    for i = 0 to transactions - 1 do
      Tcp.submit tcp ~terminal:(i mod 8)
        (Workload.debit_credit_input rng spec ())
    done;
    Cluster.run cluster
  in
  let words () =
    Gc.compact ();
    Obj.reachable_words (Obj.repr cluster)
    - Obj.reachable_words (Obj.repr (Cluster.spans cluster))
  in
  let n = 1_000 in
  run n;
  let words_n = words () in
  run (3 * n);
  let words_4n = words () in
  Alcotest.(check int) "every transaction committed" (4 * n)
    (Tcp.completed tcp);
  let per_tx = float_of_int (words_4n - words_n) /. float_of_int (3 * n) in
  (* Measured on OCaml 5.1.1: 10.6 words per transaction. Counted one by
     one at 14.1, before the monitor trail kept one int a disposition, the
     data base's blocks took 8.7 (the history row each debit-credit
     appends), the monitor table's entry 8.5 (its transid string shared
     with the span ring, so part of it subtracted above), the latency
     sample's float 1.0 and the audit files still held 0.9. Keeping every
     audit file and index entry, and a side table of the unforced monitor
     records, costs 66.9. *)
  let bound = 14. in
  if per_tx > bound then
    Alcotest.failf "cluster retains %.2f words per transaction between %d \
                    and %d transactions (bound %.0f)"
      per_tx n (4 * n) bound

(* ------------------------------------------------------------------ *)
(* Lock table vs naive model (non-blocking paths) *)

module Lock_model = struct
  type t = {
    mutable file_owners : (string * string) list; (* file -> owner *)
    mutable record_owners : ((string * string) * string) list;
        (* (file, key) -> owner *)
  }

  let create () = { file_owners = []; record_owners = [] }

  let grantable t ~owner resource =
    match resource with
    | Tandem_lock.Lock_table.Record_lock { file; key } -> (
        match List.assoc_opt file t.file_owners with
        | Some file_owner when file_owner <> owner -> false
        | _ -> (
            match List.assoc_opt (file, key) t.record_owners with
            | Some record_owner -> record_owner = owner
            | None -> true))
    | Tandem_lock.Lock_table.File_lock file ->
        (match List.assoc_opt file t.file_owners with
        | Some file_owner -> file_owner = owner
        | None -> true)
        && not
             (List.exists
                (fun ((f, _), record_owner) -> f = file && record_owner <> owner)
                t.record_owners)

  let try_acquire t ~owner resource =
    grantable t ~owner resource
    && begin
         (match resource with
         | Tandem_lock.Lock_table.Record_lock { file; key } ->
             if not (List.mem_assoc (file, key) t.record_owners) then
               t.record_owners <- ((file, key), owner) :: t.record_owners
         | Tandem_lock.Lock_table.File_lock file ->
             t.file_owners <-
               (file, owner) :: List.remove_assoc file t.file_owners);
         true
       end

  let release_all t ~owner =
    t.file_owners <- List.filter (fun (_, o) -> o <> owner) t.file_owners;
    t.record_owners <- List.filter (fun (_, o) -> o <> owner) t.record_owners

  let locked_count t =
    List.length t.file_owners + List.length t.record_owners

  let holder t resource =
    match resource with
    | Tandem_lock.Lock_table.File_lock file ->
        List.assoc_opt file t.file_owners
    | Tandem_lock.Lock_table.Record_lock { file; key } -> (
        match List.assoc_opt (file, key) t.record_owners with
        | Some _ as direct -> direct
        | None -> List.assoc_opt file t.file_owners)

  let locks_of t ~owner =
    List.filter_map
      (fun (file, o) ->
        if o = owner then Some (Tandem_lock.Lock_table.File_lock file)
        else None)
      t.file_owners
    @ List.filter_map
        (fun ((file, key), o) ->
          if o = owner then
            Some (Tandem_lock.Lock_table.Record_lock { file; key })
          else None)
        t.record_owners
end

type lock_op =
  | Acquire of int * int * int (* owner, file, key; key 0 = file lock *)
  | Release of int

let lock_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun o f k -> Acquire (o, f, k))
            (int_bound 3) (int_bound 2) (int_bound 4) );
        (2, map (fun o -> Release o) (int_bound 3));
      ])

let lock_op_print = function
  | Acquire (o, f, 0) -> Printf.sprintf "t%d file-locks F%d" o f
  | Acquire (o, f, k) -> Printf.sprintf "t%d locks F%d[k%d]" o f k
  | Release o -> Printf.sprintf "t%d releases" o

let render_resource resource =
  Format.asprintf "%a" Tandem_lock.Lock_table.pp_resource resource

let lock_table_agrees locks model =
  let open Tandem_lock.Lock_table in
  locked_count locks = Lock_model.locked_count model
  && waiting_count locks = 0
  && List.for_all
       (fun owner_index ->
         let owner = Printf.sprintf "t%d" owner_index in
         List.sort compare
           (List.map render_resource (locks_of locks ~owner))
         = List.sort compare
             (List.map render_resource (Lock_model.locks_of model ~owner)))
       [ 0; 1; 2; 3 ]

let prop_lock_table_matches_model =
  QCheck.Test.make
    ~name:"indexed lock table = naive model (try_acquire/release_all)"
    ~count:120
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lock_op_print ops))
       QCheck.Gen.(list_size (1 -- 50) lock_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let metrics = Metrics.create () in
      let locks =
        Tandem_lock.Lock_table.create engine ~metrics ~name:"$DATA"
      in
      let model = Lock_model.create () in
      List.for_all
        (fun op ->
          (match op with
          | Acquire (owner_index, file_index, key_index) ->
              let owner = Printf.sprintf "t%d" owner_index in
              let file = Printf.sprintf "F%d" file_index in
              let resource =
                if key_index = 0 then Tandem_lock.Lock_table.File_lock file
                else
                  Tandem_lock.Lock_table.Record_lock
                    { file; key = Printf.sprintf "k%d" key_index }
              in
              Tandem_lock.Lock_table.try_acquire locks ~owner resource
              = Lock_model.try_acquire model ~owner resource
              && Tandem_lock.Lock_table.holder locks resource
                 = Lock_model.holder model resource
          | Release owner_index ->
              let owner = Printf.sprintf "t%d" owner_index in
              Tandem_lock.Lock_table.release_all locks ~owner;
              Lock_model.release_all model ~owner;
              true)
          && lock_table_agrees locks model)
        ops)

(* ------------------------------------------------------------------ *)
(* Block cache and block store vs the hashtable-backed originals *)

module Cache = Tandem_disk.Cache
module Store = Tandem_db.Store
module Block_content = Tandem_db.Block_content

(* The LRU cache as it was before blocks were addressed by number: a
   doubly-linked list threaded through a hashtable. *)
module Cache_model = struct
  type entry = {
    block : int;
    mutable dirty : bool;
    mutable prev : entry option;
    mutable next : entry option;
  }

  type t = {
    cap : int;
    table : (int, entry) Hashtbl.t;
    mutable mru : entry option;
    mutable lru : entry option;
    mutable hit_count : int;
    mutable miss_count : int;
  }

  let create ~capacity =
    {
      cap = capacity;
      table = Hashtbl.create (2 * capacity);
      mru = None;
      lru = None;
      hit_count = 0;
      miss_count = 0;
    }

  let unlink t entry =
    (match entry.prev with
    | Some p -> p.next <- entry.next
    | None -> t.mru <- entry.next);
    (match entry.next with
    | Some n -> n.prev <- entry.prev
    | None -> t.lru <- entry.prev);
    entry.prev <- None;
    entry.next <- None

  let push_front t entry =
    entry.next <- t.mru;
    entry.prev <- None;
    (match t.mru with Some m -> m.prev <- Some entry | None -> ());
    t.mru <- Some entry;
    if t.lru = None then t.lru <- Some entry

  (* [`Miss (Some (block, dirty))] names the evicted block. *)
  let touch t block =
    match Hashtbl.find_opt t.table block with
    | Some entry ->
        t.hit_count <- t.hit_count + 1;
        unlink t entry;
        push_front t entry;
        `Hit
    | None ->
        t.miss_count <- t.miss_count + 1;
        let evicted =
          if Hashtbl.length t.table >= t.cap then begin
            match t.lru with
            | Some victim ->
                unlink t victim;
                Hashtbl.remove t.table victim.block;
                Some (victim.block, victim.dirty)
            | None -> None
          end
          else None
        in
        let entry = { block; dirty = false; prev = None; next = None } in
        Hashtbl.replace t.table block entry;
        push_front t entry;
        `Miss evicted

  let mark_dirty t block =
    match Hashtbl.find_opt t.table block with
    | Some entry -> entry.dirty <- true
    | None -> invalid_arg "Cache.mark_dirty: block not resident"

  let clean t block =
    match Hashtbl.find_opt t.table block with
    | Some entry -> entry.dirty <- false
    | None -> ()

  let is_dirty t block =
    match Hashtbl.find_opt t.table block with
    | Some entry -> entry.dirty
    | None -> false

  let dirty_blocks t =
    Hashtbl.fold
      (fun block entry acc -> if entry.dirty then block :: acc else acc)
      t.table []
    |> List.sort Int.compare

  let drop t block =
    match Hashtbl.find_opt t.table block with
    | Some entry ->
        unlink t entry;
        Hashtbl.remove t.table block
    | None -> ()

  let clear t =
    Hashtbl.reset t.table;
    t.mru <- None;
    t.lru <- None

  let resident t = Hashtbl.length t.table
end

(* The block store as it was, uncharged: two hashtable images over the
   model cache. *)
module Store_model = struct
  type t = {
    cache : Cache_model.t;
    current : (int, Block_content.t) Hashtbl.t;
    mutable disk : (int, Block_content.t) Hashtbl.t;
    mutable next_block : int;
  }

  let create ~cache_capacity =
    {
      cache = Cache_model.create ~capacity:cache_capacity;
      current = Hashtbl.create 256;
      disk = Hashtbl.create 256;
      next_block = 0;
    }

  let flush_block t block =
    match Hashtbl.find_opt t.current block with
    | Some content ->
        Hashtbl.replace t.disk block content;
        Cache_model.clean t.cache block
    | None -> ()

  let handle_eviction t = function
    | Some (block, true) -> flush_block t block
    | Some (_, false) | None -> ()

  let touch_for_write t block =
    (match Cache_model.touch t.cache block with
    | `Hit -> ()
    | `Miss evicted -> handle_eviction t evicted);
    Cache_model.mark_dirty t.cache block

  let alloc t content =
    let block = t.next_block in
    t.next_block <- t.next_block + 1;
    Hashtbl.replace t.current block content;
    touch_for_write t block;
    block

  let read t block =
    if not (Hashtbl.mem t.current block) then raise Not_found;
    (match Cache_model.touch t.cache block with
    | `Hit -> ()
    | `Miss evicted -> handle_eviction t evicted);
    Hashtbl.find t.current block

  let write t block content =
    if not (Hashtbl.mem t.current block) then
      invalid_arg "Store.write: unallocated block";
    Hashtbl.replace t.current block content;
    touch_for_write t block

  let free t block =
    Hashtbl.remove t.current block;
    Hashtbl.remove t.disk block;
    Cache_model.drop t.cache block

  let flush_all t = List.iter (flush_block t) (Cache_model.dirty_blocks t.cache)

  let crash t =
    Hashtbl.reset t.current;
    Hashtbl.iter (fun block content -> Hashtbl.replace t.current block content)
      t.disk;
    Cache_model.clear t.cache

  let overwrite_disk_image t =
    t.disk <- Hashtbl.copy t.current;
    Cache_model.clear t.cache

  let block_count t = Hashtbl.length t.current

  let snapshot t =
    Hashtbl.fold (fun block content acc -> (block, content) :: acc) t.current []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let restore t blocks =
    Hashtbl.reset t.current;
    Cache_model.clear t.cache;
    List.iter
      (fun (block, content) ->
        Hashtbl.replace t.current block content;
        t.next_block <- max t.next_block (block + 1))
      blocks
end

(* Mostly a small hot range, so hits and evictions happen, plus sparse
   block numbers up to 12,000. *)
let block_gen =
  QCheck.Gen.(frequency [ (4, int_bound 24); (1, int_bound 12_000) ])

type cache_op =
  | Touch of int
  | Mark_dirty of int
  | Clean of int
  | Drop of int
  | Clear

let cache_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun b -> Touch b) block_gen);
        (3, map (fun b -> Mark_dirty b) block_gen);
        (1, map (fun b -> Clean b) block_gen);
        (1, map (fun b -> Drop b) block_gen);
        (1, return Clear);
      ])

let cache_op_print = function
  | Touch b -> Printf.sprintf "touch %d" b
  | Mark_dirty b -> Printf.sprintf "mark_dirty %d" b
  | Clean b -> Printf.sprintf "clean %d" b
  | Drop b -> Printf.sprintf "drop %d" b
  | Clear -> "clear"

(* Runs [f], turning [Invalid_argument] into [Error ()]. *)
let outcome f =
  match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let cache_agrees cache model probes =
  Cache.resident cache = Cache_model.resident model
  && Cache.hits cache = model.Cache_model.hit_count
  && Cache.misses cache = model.Cache_model.miss_count
  && Cache.dirty_blocks cache = Cache_model.dirty_blocks model
  && List.for_all
       (fun b -> Cache.is_dirty cache b = Cache_model.is_dirty model b)
       probes

let prop_cache_matches_model =
  QCheck.Test.make ~name:"block-indexed cache = hashtable cache" ~count:300
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat "; " (List.map cache_op_print ops)))
       QCheck.Gen.(pair (1 -- 8) (list_size (1 -- 120) cache_op_gen)))
    (fun (capacity, ops) ->
      let cache = Cache.create ~capacity in
      let model = Cache_model.create ~capacity in
      List.for_all
        (fun op ->
          let same_result, probe =
            match op with
            | Touch b ->
                let real =
                  match Cache.touch cache b with
                  | `Hit -> `Hit
                  | `Miss evicted ->
                      `Miss
                        (Option.map
                           (fun { Cache.block; dirty } -> (block, dirty))
                           evicted)
                in
                (real = Cache_model.touch model b, b)
            | Mark_dirty b ->
                ( outcome (fun () -> Cache.mark_dirty cache b)
                  = outcome (fun () -> Cache_model.mark_dirty model b),
                  b )
            | Clean b ->
                Cache.clean cache b;
                Cache_model.clean model b;
                (true, b)
            | Drop b ->
                Cache.drop cache b;
                Cache_model.drop model b;
                (true, b)
            | Clear ->
                Cache.clear cache;
                Cache_model.clear model;
                (true, 0)
          in
          same_result && cache_agrees cache model [ probe; probe + 1; 0 ])
        ops)

type store_op =
  | Alloc of int
  | Read of int
  | Write of int * int
  | Free of int
  | Flush_all
  | Crash
  | Overwrite_disk_image
  | Restore of (int * int) list

let store_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun v -> Alloc v) small_nat);
        (5, map (fun b -> Read b) block_gen);
        (4, map2 (fun b v -> Write (b, v)) block_gen small_nat);
        (1, map (fun b -> Free b) block_gen);
        (1, return Flush_all);
        (1, return Crash);
        (1, return Overwrite_disk_image);
        ( 1,
          map
            (fun blocks -> Restore blocks)
            (list_size (0 -- 12) (pair block_gen small_nat)) );
      ])

let store_op_print = function
  | Alloc v -> Printf.sprintf "alloc %d" v
  | Read b -> Printf.sprintf "read %d" b
  | Write (b, v) -> Printf.sprintf "write %d %d" b v
  | Free b -> Printf.sprintf "free %d" b
  | Flush_all -> "flush_all"
  | Crash -> "crash"
  | Overwrite_disk_image -> "overwrite_disk_image"
  | Restore blocks ->
      Printf.sprintf "restore [%s]"
        (String.concat "; "
           (List.map (fun (b, v) -> Printf.sprintf "%d=%d" b v) blocks))

let block_of v =
  Block_content.Relative_segment
    { base_slot = v; slots = [| Some (string_of_int v) |] }

(* Runs [f], turning [Not_found] and [Invalid_argument] into errors. *)
let store_outcome f =
  match f () with
  | v -> Ok v
  | exception Not_found -> Error "not found"
  | exception Invalid_argument _ -> Error "invalid"

let prop_store_matches_model =
  QCheck.Test.make ~name:"block-indexed store = hashtable store" ~count:300
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "cache %d: %s" capacity
           (String.concat "; " (List.map store_op_print ops)))
       QCheck.Gen.(pair (1 -- 8) (list_size (1 -- 80) store_op_gen)))
    (fun (cache_capacity, ops) ->
      let volume =
        Tandem_disk.Volume.create (Engine.create ())
          ~metrics:(Metrics.create ()) ~name:"$DATA"
          ~access_time:(Sim_time.milliseconds 25)
      in
      let store = Store.create volume ~cache_capacity in
      Store.set_charging store false;
      let model = Store_model.create ~cache_capacity in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Alloc v ->
                Store.alloc store (block_of v)
                = Store_model.alloc model (block_of v)
            | Read b ->
                store_outcome (fun () -> Store.read store b)
                = store_outcome (fun () -> Store_model.read model b)
            | Write (b, v) ->
                store_outcome (fun () -> Store.write store b (block_of v))
                = store_outcome (fun () ->
                      Store_model.write model b (block_of v))
            | Free b ->
                Store.free store b;
                Store_model.free model b;
                true
            | Flush_all ->
                Store.flush_all store;
                Store_model.flush_all model;
                true
            | Crash ->
                Store.crash store;
                Store_model.crash model;
                true
            | Overwrite_disk_image ->
                Store.overwrite_disk_image store;
                Store_model.overwrite_disk_image model;
                true
            | Restore blocks ->
                let blocks = List.map (fun (b, v) -> (b, block_of v)) blocks in
                Store.restore store blocks;
                Store_model.restore model blocks;
                true
          in
          same_result
          && Store.block_count store = Store_model.block_count model
          && Store.snapshot store = Store_model.snapshot model
          && Store.dirty_count store
             = List.length (Cache_model.dirty_blocks model.Store_model.cache)
          && Store.cache_hits store = model.Store_model.cache.hit_count
          && Store.cache_misses store = model.Store_model.cache.miss_count)
        ops)

(* A hit is an array load and a relink: nothing to allocate. *)
let test_cache_hit_allocates_nothing () =
  let cache = Cache.create ~capacity:2 in
  ignore (Cache.touch cache 0);
  ignore (Cache.touch cache 1);
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    (* Alternating blocks makes every hit move the least-recently-used
       entry to the front. *)
    ignore (Sys.opaque_identity (Cache.touch cache (i land 1)))
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "1,000 hits allocate nothing" 0. allocated;
  Alcotest.(check int) "all hits" 1_000 (Cache.hits cache)

let test_cache_rejects_negative_block () =
  let cache = Cache.create ~capacity:2 in
  Alcotest.check_raises "negative block"
    (Invalid_argument "Cache.touch: negative block") (fun () ->
      ignore (Cache.touch cache (-1)))

let test_key_of_int_matches_sprintf () =
  let check n =
    Alcotest.(check string)
      (Printf.sprintf "Key.of_int %d" n)
      (Printf.sprintf "%012d" n) (Tandem_db.Key.of_int n)
  in
  List.iter check
    [ 0; 9; 10; 99_999_999_999; 1_000_000_000_000; max_int; -5; min_int ];
  let rng = Random.State.make [| 15 |] in
  for i = 0 to 99_999 do
    (* Consecutive small numbers, then random ones of every width. *)
    if i < 50_000 then check i
    else check (Random.State.full_int rng max_int asr Random.State.int rng 62)
  done

(* ------------------------------------------------------------------ *)
(* Parallel phase one = serial phase one, disposition for disposition *)

let three_node_cluster ~parallel =
  let config =
    { Tandem_os.Hw_config.default with parallel_prepare = parallel }
  in
  (* Accounts 0-49 on node 1, 50-99 on node 2, 100-149 on node 3. *)
  let cluster, _spec =
    Workload.build_bank ~seed:11 ~config ~nodes:3 ~accounts:150
      ~servers:[ `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:Workload.transfer_program ()
  in
  (cluster, tcp)

(* Transfers whose two accounts straddle nodes 2 and 3: the home node
   prepares two children, so serial and concurrent phase one genuinely
   diverge in schedule. *)
let transfers =
  [
    (60, 110, 25);
    (115, 70, 40);
    (10, 130, 15);
    (80, 120, 30);
    (125, 65, 10);
  ]

let monitor_entries cluster node =
  Monitor_trail.entries
    (Tmf.node_state (Cluster.tmf cluster) node).Tmf.Tmf_state.monitor

let run_mode ~parallel =
  let cluster, tcp = three_node_cluster ~parallel in
  List.iter
    (fun (from_account, to_account, amount) ->
      Tcp.submit tcp ~terminal:0
        (Workload.transfer_input_between ~from_account ~to_account ~amount))
    transfers;
  Cluster.run cluster;
  let balances =
    List.map
      (fun account -> Workload.account_balance cluster ~account)
      [ 10; 60; 65; 70; 80; 110; 115; 120; 125; 130 ]
  in
  (Tcp.completed tcp, List.map (monitor_entries cluster) [ 1; 2; 3 ], balances)

let test_parallel_prepare_equivalence () =
  let committed_serial, monitors_serial, balances_serial =
    run_mode ~parallel:false
  in
  let committed_parallel, monitors_parallel, balances_parallel =
    run_mode ~parallel:true
  in
  Alcotest.(check int)
    "same completions" committed_serial committed_parallel;
  Alcotest.(check int)
    "every transfer completed" (List.length transfers) committed_parallel;
  List.iteri
    (fun i (serial, parallel) ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "node %d dispositions identical" (i + 1))
        (List.map
           (fun (transid, d) ->
             ( transid,
               match d with
               | Monitor_trail.Committed -> "committed"
               | Monitor_trail.Aborted -> "aborted" ))
           serial)
        (List.map
           (fun (transid, d) ->
             ( transid,
               match d with
               | Monitor_trail.Committed -> "committed"
               | Monitor_trail.Aborted -> "aborted" ))
           parallel))
    (List.combine monitors_serial monitors_parallel);
  Alcotest.(check (list (option int)))
    "balances identical" balances_serial balances_parallel

(* ------------------------------------------------------------------ *)
(* Monitor trail vs a table of strings *)

module Monitor_model = struct
  (* transid -> (disposition, unforced, order) *)
  type t = {
    table : (string, Monitor_trail.disposition * bool * int) Hashtbl.t;
    mutable next_order : int;
    mutable covered : int;
  }

  let create () = { table = Hashtbl.create 16; next_order = 0; covered = 0 }

  let record t ~forced transid disposition =
    if Hashtbl.mem t.table transid then invalid_arg "duplicate";
    if forced then t.covered <- t.next_order;
    Hashtbl.replace t.table transid (disposition, not forced, t.next_order);
    t.next_order <- t.next_order + 1

  let crash t =
    let lost =
      Hashtbl.fold
        (fun transid (_, unforced, order) lost ->
          if unforced && order >= t.covered then transid :: lost else lost)
        t.table []
    in
    List.iter (Hashtbl.remove t.table) lost;
    List.length lost

  let disposition_of t transid =
    Option.map (fun (d, _, _) -> d) (Hashtbl.find_opt t.table transid)

  let count t disposition =
    Hashtbl.fold (fun _ (d, _, _) n -> if d = disposition then n + 1 else n) t.table 0

  let entries t =
    Hashtbl.fold
      (fun transid (d, _, order) acc -> (order, (transid, d)) :: acc)
      t.table []
    |> List.sort compare |> List.map snd
end

type monitor_op =
  | Record of string * Monitor_trail.disposition
  | Record_unforced of string * Monitor_trail.disposition
  | Crash
  | Lookup of string

(* Canonical transids of a few (home, cpu) pairs, remote homes among them,
   drawn out of sequence order; the bounds of the compact form; and
   strings that parse to the same transid but must stay distinct keys. *)
let monitor_transid_gen =
  QCheck.Gen.(
    let seq = int_bound 30 in
    frequency
      [
        ( 6,
          map3
            (fun home cpu seq -> Printf.sprintf "%d.%d.%d" home cpu seq)
            (oneofl [ 1; 2; 3; 7 ])
            (int_bound 2) seq );
        ( 1,
          oneofl
            [
              "1.0.1073741823"; "1.0.1073741824"; "1023.15.7"; "1024.0.7";
              "1.1024.7"; "0.0.0"; "1.0.99999999999";
            ] );
        ( 3,
          map2
            (fun (prefix, suffix) seq -> Printf.sprintf "%s%d%s" prefix seq suffix)
            (oneofl
               [
                 ("1.0.0", ""); ("+1.0.", ""); ("01.0.", ""); ("1.00.", "");
                 ("1.0.", "."); ("1..", ""); ("-1.0.", ""); ("1.0.", " ");
                 ("1.0.", ".0"); ("x.0.", "");
               ])
            seq );
        (1, oneofl [ ""; "1.0"; "."; "1.0." ]);
      ])

let monitor_op_gen =
  QCheck.Gen.(
    let disposition = oneofl [ Monitor_trail.Committed; Monitor_trail.Aborted ] in
    frequency
      [
        (4, map2 (fun t d -> Record (t, d)) monitor_transid_gen disposition);
        (4, map2 (fun t d -> Record_unforced (t, d)) monitor_transid_gen disposition);
        (1, return Crash);
        (2, map (fun t -> Lookup t) monitor_transid_gen);
      ])

let monitor_op_print =
  let d = function Monitor_trail.Committed -> "C" | Monitor_trail.Aborted -> "A" in
  function
  | Record (t, x) -> Printf.sprintf "record %S %s" t (d x)
  | Record_unforced (t, x) -> Printf.sprintf "record_unforced %S %s" t (d x)
  | Crash -> "crash"
  | Lookup t -> Printf.sprintf "lookup %S" t

let prop_monitor_matches_model =
  QCheck.Test.make ~name:"compact monitor trail = table of strings" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map monitor_op_print ops))
       QCheck.Gen.(list_size (1 -- 80) monitor_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let volume =
        Tandem_disk.Volume.create engine ~metrics:(Metrics.create ()) ~name:"$MVOL"
          ~access_time:(Sim_time.milliseconds 5)
      in
      let monitor = Monitor_trail.create volume in
      let model = Monitor_model.create () in
      let forced transid d =
        let result = ref (Error ()) in
        ignore
          (Fiber.spawn (fun () ->
               result := outcome (fun () -> Monitor_trail.record monitor ~transid d)));
        Engine.run engine;
        !result
      in
      List.for_all
        (fun op ->
          let same, probe =
            match op with
            | Record (transid, d) ->
                ( forced transid d
                  = outcome (fun () -> Monitor_model.record model ~forced:true transid d),
                  transid )
            | Record_unforced (transid, d) ->
                ( outcome (fun () -> Monitor_trail.record_unforced monitor ~transid d)
                  = outcome (fun () ->
                        Monitor_model.record model ~forced:false transid d),
                  transid )
            | Crash -> (Monitor_trail.crash monitor = Monitor_model.crash model, "1.0.1")
            | Lookup transid -> (true, transid)
          in
          same
          && Monitor_trail.disposition_of monitor ~transid:probe
             = Monitor_model.disposition_of model probe
          && List.for_all
               (fun d -> Monitor_trail.count monitor d = Monitor_model.count model d)
               [ Monitor_trail.Committed; Monitor_trail.Aborted ]
          && Monitor_trail.entries monitor = Monitor_model.entries model)
        ops)

(* ------------------------------------------------------------------ *)
(* Span ring vs a list of span records *)

(* The list-backed registry the flat ring replaced: finished spans newest
   first in a list, found through a table, the oldest half dropped on
   overflow. A trim unbinds an id only from the span it drops, so a
   restarted id's newer span stays findable. *)
module Span_model = struct
  type t = {
    engine : Engine.t;
    capacity : int;
    active : (string, Span.span) Hashtbl.t;
    by_id : (string, Span.span) Hashtbl.t;
    mutable finished : Span.span list;
    mutable size : int;
    mutable started : int;
    mutable committed : int;
    mutable aborted : int;
  }

  let create ~capacity engine =
    {
      engine;
      capacity;
      active = Hashtbl.create 16;
      by_id = Hashtbl.create 16;
      finished = [];
      size = 0;
      started = 0;
      committed = 0;
      aborted = 0;
    }

  let start t id =
    match Hashtbl.find_opt t.active id with
    | Some span -> span
    | None ->
        let span =
          {
            Span.span_id = id;
            begin_at = Engine.now t.engine;
            phase1_at = None;
            phase2_at = None;
            backout_at = None;
            end_at = None;
            outcome = Span.Pending;
            messages = 0;
            prepares = 0;
            phase2_msgs = 0;
            forced_writes = 0;
            lock_waits = 0;
            restarts = 0;
            images_undone = 0;
            remote_nodes = 0;
            state_broadcasts = 0;
          }
        in
        Hashtbl.replace t.active id span;
        t.started <- t.started + 1;
        span

  let find t id =
    match Hashtbl.find_opt t.active id with
    | Some _ as hit -> hit
    | None -> Hashtbl.find_opt t.by_id id

  let finish t id outcome =
    match Hashtbl.find_opt t.active id with
    | None -> None
    | Some span ->
        span.Span.end_at <- Some (Engine.now t.engine);
        span.outcome <- outcome;
        (match outcome with
        | Span.Committed -> t.committed <- t.committed + 1
        | Span.Aborted _ -> t.aborted <- t.aborted + 1
        | Span.Pending -> ());
        Hashtbl.remove t.active id;
        Hashtbl.replace t.by_id id span;
        t.finished <- span :: t.finished;
        t.size <- t.size + 1;
        if t.size > t.capacity then begin
          let keep = t.capacity / 2 in
          t.finished <-
            List.filteri
              (fun i old ->
                if i < keep then true
                else begin
                  (match Hashtbl.find_opt t.by_id old.Span.span_id with
                  | Some bound when bound == old -> Hashtbl.remove t.by_id old.span_id
                  | Some _ | None -> ());
                  false
                end)
              t.finished;
          t.size <- keep
        end;
        Some span

  let slowest ~n t =
    List.filter_map
      (fun span -> Option.map (fun d -> (d, span)) (Span.duration span))
      t.finished
    |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
    |> List.filteri (fun i _ -> i < n)
    |> List.map snd

  let abort_reasons t =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun span ->
        match span.Span.outcome with
        | Span.Aborted reason ->
            Hashtbl.replace counts reason
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts reason))
        | Span.Committed | Span.Pending -> ())
      t.finished;
    Hashtbl.fold (fun reason count acc -> (reason, count) :: acc) counts []
    |> List.sort (fun (ra, a) (rb, b) ->
           match Int.compare b a with 0 -> String.compare ra rb | c -> c)
end

type span_emit =
  | Phase1
  | Phase2
  | Backout
  | Messages of int
  | Prepare
  | Phase2_msg
  | Forced_write
  | Lock_wait
  | Restart
  | Images_undone of int
  | Remote_node
  | State_broadcasts of int

type span_op =
  | Start of string
  | Finish of string * Span.outcome
  | Emit of span_emit * string
  | Advance of int
  | Churn of int

let span_emit_print = function
  | Phase1 -> "phase1"
  | Phase2 -> "phase2"
  | Backout -> "backout"
  | Messages n -> Printf.sprintf "messages %d" n
  | Prepare -> "prepare"
  | Phase2_msg -> "phase2_msg"
  | Forced_write -> "forced_write"
  | Lock_wait -> "lock_wait"
  | Restart -> "restart"
  | Images_undone n -> Printf.sprintf "images_undone %d" n
  | Remote_node -> "remote_node"
  | State_broadcasts n -> Printf.sprintf "state_broadcasts %d" n

let span_op_print = function
  | Start id -> "start " ^ id
  | Finish (id, outcome) ->
      Printf.sprintf "finish %s (%s)" id (Span.outcome_to_string outcome)
  | Emit (emit, id) -> Printf.sprintf "%s %s" (span_emit_print emit) id
  | Advance us -> Printf.sprintf "advance %d" us
  | Churn n -> Printf.sprintf "churn %d" n

(* Twelve ids, so finished ids are started again and late events reach
   spans in the ring, beside ids the registry never saw. [Churn n] starts
   and finishes the first [n] of forty more, enough to grow a ring of 60
   to 80 slots from its first 16 and to trim it. *)
let span_ids = List.init 12 (Printf.sprintf "1.0.%d")

let churn_id = Printf.sprintf "2.0.%d"

let probe_ids = ("9.9.9" :: span_ids) @ List.map churn_id [ 0; 7; 39 ]

let span_op_gen =
  QCheck.Gen.(
    let id = oneofl ("9.9.9" :: span_ids) in
    let emit =
      oneof
        [
          oneofl
            [ Phase1; Phase2; Backout; Prepare; Phase2_msg; Forced_write; Lock_wait;
              Restart; Remote_node ];
          map (fun n -> Messages n) (1 -- 3);
          map (fun n -> Images_undone n) (1 -- 3);
          map (fun n -> State_broadcasts n) (1 -- 3);
        ]
    in
    let outcome =
      frequency
        [
          (4, return Span.Committed);
          (2, map (fun r -> Span.Aborted r) (oneofl [ "lock timeout"; "node 2 down" ]));
          (1, return Span.Pending);
        ]
    in
    frequency
      [
        (3, map (fun id -> Start id) id);
        (3, map2 (fun id o -> Finish (id, o)) id outcome);
        (4, map2 (fun e id -> Emit (e, id)) emit id);
        (2, map (fun us -> Advance us) (0 -- 500));
        (1, map (fun n -> Churn n) (1 -- 40));
      ])

let emit_span spans id = function
  | Phase1 -> Span.mark_phase1 spans id
  | Phase2 -> Span.mark_phase2 spans id
  | Backout -> Span.mark_backout spans id
  | Messages n -> Span.add_messages spans id n
  | Prepare -> Span.incr_prepares spans id
  | Phase2_msg -> Span.incr_phase2_msgs spans id
  | Forced_write -> Span.incr_forced_writes spans id
  | Lock_wait -> Span.incr_lock_waits spans id
  | Restart -> Span.incr_restarts spans id
  | Images_undone n -> Span.add_images_undone spans id n
  | Remote_node -> Span.incr_remote_nodes spans id
  | State_broadcasts n -> Span.add_state_broadcasts spans id n

let emit_model model engine id emit =
  match Span_model.find model id with
  | None -> ()
  | Some span -> (
      let stamp () = Some (Engine.now engine) in
      match emit with
      | Phase1 -> if span.phase1_at = None then span.phase1_at <- stamp ()
      | Phase2 -> if span.phase2_at = None then span.phase2_at <- stamp ()
      | Backout -> if span.backout_at = None then span.backout_at <- stamp ()
      | Messages n -> span.messages <- span.messages + n
      | Prepare -> span.prepares <- span.prepares + 1
      | Phase2_msg -> span.phase2_msgs <- span.phase2_msgs + 1
      | Forced_write -> span.forced_writes <- span.forced_writes + 1
      | Lock_wait -> span.lock_waits <- span.lock_waits + 1
      | Restart -> span.restarts <- span.restarts + 1
      | Images_undone n -> span.images_undone <- span.images_undone + n
      | Remote_node -> span.remote_nodes <- span.remote_nodes + 1
      | State_broadcasts n -> span.state_broadcasts <- span.state_broadcasts + n)

let prop_span_ring_matches_model =
  QCheck.Test.make ~name:"flat span ring = list of span records" ~count:300
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat "; " (List.map span_op_print ops)))
       QCheck.Gen.(
         pair (oneof [ 1 -- 6; 60 -- 80 ]) (list_size (60 -- 200) span_op_gen)))
    (fun (capacity, ops) ->
      let engine = Engine.create () in
      let spans = Span.create ~capacity engine in
      let model = Span_model.create ~capacity engine in
      let json = Option.map Span.to_json in
      let jsons = List.map Span.to_json in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Start id ->
                Span.to_json (Span.start spans id)
                = Span.to_json (Span_model.start model id)
            | Finish (id, o) ->
                json (Span.finish spans id o) = json (Span_model.finish model id o)
            | Emit (emit, id) ->
                emit_span spans id emit;
                emit_model model engine id emit;
                true
            | Advance us ->
                Engine.run_for engine us;
                true
            | Churn n ->
                List.for_all
                  (fun id ->
                    ignore (Span.start spans id);
                    ignore (Span_model.start model id);
                    json (Span.finish spans id Span.Committed)
                    = json (Span_model.finish model id Span.Committed))
                  (List.init n churn_id)
          in
          same
          && List.for_all
               (fun id -> json (Span.find spans id) = json (Span_model.find model id))
               probe_ids
          && jsons (Span.finished spans) = jsons (List.rev model.finished)
          && Span.finished_count spans = model.size
          && Span.active_count spans = Hashtbl.length model.active
          && jsons (Span.slowest spans) = jsons (Span_model.slowest ~n:10 model)
          && jsons (Span.slowest ~n:2 spans) = jsons (Span_model.slowest ~n:2 model)
          && Span.abort_reasons spans = Span_model.abort_reasons model
          && Span.started_total spans = model.started
          && Span.committed_total spans = model.committed
          && Span.aborted_total spans = model.aborted)
        ops)

(* The ring's storage reaches its full size as it first fills: after 3x its
   capacity finishes it holds exactly what it held after one capacity's
   worth, late events and trims included. Ids of one width keep the id
   strings' share equal too. *)
let test_span_ring_retention () =
  let spans = Tandem_os.Net.spans (Tandem_os.Net.create ()) in
  let capacity = 4_096 in
  let finish_batch from =
    for i = from to from + capacity - 1 do
      let id = Printf.sprintf "1.0.%07d" i in
      ignore (Span.start spans id);
      Span.add_messages spans id 2;
      ignore
        (Span.finish spans id
           (if i mod 7 = 0 then Span.Aborted "lock timeout" else Span.Committed));
      Span.incr_phase2_msgs spans (Printf.sprintf "1.0.%07d" (i - 100))
    done
  in
  let words () = Obj.reachable_words (Obj.repr spans) in
  finish_batch 0;
  let after_capacity = words () in
  finish_batch capacity;
  finish_batch (2 * capacity);
  let after_three = words () in
  Alcotest.(check int) "ring words after 1x and 3x capacity" after_capacity after_three;
  let per_slot = float_of_int after_three /. float_of_int capacity in
  (* Measured on OCaml 5.1.1: 21.2 words per slot (fourteen ints, an id
     and an outcome, two index entries and a three-word id string). A
     list of span records with a table over them took 29.7 words per
     span with the ring full, and more words after 3x capacity finishes
     while holding fewer spans. *)
  let bound = 24. in
  if per_slot > bound then
    Alcotest.failf "span ring retains %.2f words per slot (bound %.0f)" per_slot bound

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_hotpath"
    [
      ( "audit index",
        qcheck
          [
            prop_trail_matches_model;
            prop_encoding_round_trips;
            prop_monitor_matches_model;
          ]
        @ [
            Alcotest.test_case "chain straddles purge and crash" `Quick
              test_chain_straddles_purge_and_crash;
            Alcotest.test_case "unforced files outlive a rollover" `Quick
              test_unforced_file_outlives_rollover;
            Alcotest.test_case "floor at the oldest live record" `Quick
              test_floor_at_oldest_live_record;
            Alcotest.test_case "no per-key state retained" `Quick
              test_trail_retention_per_record;
            Alcotest.test_case "monitor trail keeps one table" `Quick
              test_monitor_retention_per_entry;
            Alcotest.test_case "reply slots keep one reply per requester"
              `Quick test_reply_slots_retention;
            Alcotest.test_case "integer sample keeps one count per value"
              `Quick test_sample_retention;
            Alcotest.test_case "registry flat as the run grows" `Quick
              test_registry_retention;
            Alcotest.test_case "cluster heap bounded per transaction" `Quick
              test_cluster_retention;
          ] );
      ( "span ring",
        qcheck [ prop_span_ring_matches_model ]
        @ [
            Alcotest.test_case "storage flat after the first fill" `Quick
              test_span_ring_retention;
          ] );
      ( "lock index",
        qcheck [ prop_lock_table_matches_model ] );
      ( "block index",
        qcheck [ prop_cache_matches_model; prop_store_matches_model ]
        @ [
            Alcotest.test_case "cache hit allocates nothing" `Quick
              test_cache_hit_allocates_nothing;
            Alcotest.test_case "cache rejects a negative block" `Quick
              test_cache_rejects_negative_block;
            Alcotest.test_case "Key.of_int = sprintf %012d" `Quick
              test_key_of_int_matches_sprintf;
          ] );
      ( "parallel phase one",
        [
          Alcotest.test_case "dispositions identical to serial" `Quick
            test_parallel_prepare_equivalence;
        ] );
    ]
