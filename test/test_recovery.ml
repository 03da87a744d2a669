(* ROLLFORWARD recovery tests.

   ROLLFORWARD is one replay engine whose two modes differ only in how the
   surviving audit is partitioned and how many workers apply it:
   [`Sequential] replays each trail as one chain in audit order on one
   worker with no read-ahead; [`Chains n] replays each trail's dependency
   chains on [n] workers with read-ahead. The load-bearing property here
   pins the two against each other: for ANY generated bank workload,
   archive point and crash point, both must leave the recovered node's
   volumes in a byte-identical logical state, with identical stats. Both
   nodes are crashed at the same instant so no concurrent traffic races
   the comparison — only the replay order differs between the two runs.

   Alongside it: the single-node fast-path corner (commit markers must
   drive verdicts under parallel replay WITHOUT fusing every fast-path
   commit into one chain), a node with two audit trails recovered under
   both modes (one chain per trail, funds conserved, an archive taken
   across a half-forced transfer), and unit tests of the dependency edges
   the audit trail derives from its forced records across force, crash and
   purge. *)

open Tandem_sim
open Tandem_os
open Tandem_audit
open Tandem_encompass
open Tandem_chaos
module Db = Tandem_db

let check_int = Alcotest.(check int)
(* Edges between transactions T<n>: home 1, cpu 0, seq n. *)
let tx n = Transid.make ~home:1 ~cpu:0 ~seq:n

let check_edges message expected edges =
  Alcotest.(check (list (pair int int)))
    message expected
    (List.map (fun ((a : Transid.t), (b : Transid.t)) -> (a.seq, b.seq)) edges)

(* ------------------------------------------------------------------ *)
(* Logical state digest *)

(* Render every data volume as logical file contents in key order — NOT
   raw blocks: B-tree node layout and allocator counters are legitimately
   order-dependent, the record contents are not. *)
let cluster_digest cluster =
  let defs = Db.Schema.all (Cluster.dictionary cluster) in
  let buf = Buffer.create 4096 in
  let scan () =
    List.iter
      (fun (node, volume) ->
        Buffer.add_string buf ("== " ^ volume ^ "\n");
        let dp = Cluster.discprocess cluster ~node ~volume in
        List.iter
          (fun def ->
            match Discprocess.file dp def.Db.Schema.file_name with
            | None -> ()
            | Some file ->
                Buffer.add_string buf (def.Db.Schema.file_name ^ ":");
                (match Db.File.check_invariants file with
                | Ok () -> ()
                | Error message ->
                    Buffer.add_string buf ("[BROKEN " ^ message ^ "]"));
                Db.File.iter file (fun key payload ->
                    Buffer.add_string buf
                      (Format.asprintf "%a=%s;" Db.Key.pp key payload));
                Buffer.add_char buf '\n')
          defs)
      (Cluster.data_volumes cluster)
  in
  (* File reads suspend on block I/O: scan from a fiber, pump to done. *)
  ignore (Fiber.spawn ~name:"digest" scan);
  Engine.run (Cluster.engine cluster);
  Buffer.contents buf

(* Stamp every data volume's disk image with its current blocks, so the
   coming crash loses no data-volume state. Recovery never reads the
   crashed volumes (it restores from the archive first), so this costs the
   replay nothing — what it buys is a deterministic post-crash world: the
   closed-loop terminals survive a node failure (process re-creation is
   instantaneous in this simulation) and keep submitting against the
   crashed node, and without the stamp those requests can dereference
   store blocks that reverted out from under the files' in-memory state. *)
let quiesce_volumes cluster =
  List.iter
    (fun dp -> Db.Store.overwrite_disk_image (Discprocess.store dp))
    (Cluster.all_discprocesses cluster)

let stats_repr (stats : Tmf.Rollforward.stats) =
  Printf.sprintf
    "scanned=%d applied=%d undone=%d redone=%d discarded=%d in_doubt=[%s]"
    stats.Tmf.Rollforward.images_scanned stats.images_applied
    stats.images_undone stats.transactions_redone stats.transactions_discarded
    (String.concat ";"
       (List.sort String.compare
          (List.map Tmf.Transid.to_string stats.in_doubt)))

(* Build a two-node bank, archive both nodes mid-flight, crash BOTH nodes
   at [crash_ms] with transactions genuinely open, then recover.

   The closed-loop terminals are NOT killed by a node failure (process
   re-creation after reload is instantaneous in this simulation), so the
   surviving workload flails against the crashed nodes and must be drained
   to quiescence BEFORE recovery runs: the drain is byte-identical under
   both replay modes (the knob is unread until [recover]), while anything
   running concurrently with recovery would interleave differently against
   the two replay durations and contaminate the comparison. *)
let run_recovery ~seed ~archive_ms ~crash_ms ~parallelism =
  let config =
    { Hw_config.default with Hw_config.rollforward_parallelism = parallelism }
  in
  let bank = Harness.build_bank ~nodes:2 ~config ~seed ~quick:true () in
  let cluster = bank.Harness.cluster in
  let archives = ref [] in
  ignore
    (Engine.schedule_at (Cluster.engine cluster)
       (Sim_time.milliseconds archive_ms) (fun () ->
         archives :=
           [
             (1, Cluster.take_archive cluster ~node:1);
             (2, Cluster.take_archive cluster ~node:2);
           ]));
  Cluster.run ~until:(Sim_time.milliseconds crash_ms) cluster;
  quiesce_volumes cluster;
  Cluster.total_node_failure cluster ~node:1;
  Cluster.total_node_failure cluster ~node:2;
  Harness.drain cluster;
  let archive_for wanted =
    match List.assoc_opt wanted !archives with
    | Some archive -> archive
    | None -> Alcotest.fail "archive event never fired"
  in
  let stats1 = Cluster.rollforward_node cluster ~node:1 (archive_for 1) in
  let stats2 = Cluster.rollforward_node cluster ~node:2 (archive_for 2) in
  (cluster, cluster_digest cluster, stats_repr stats1 ^ " || " ^ stats_repr stats2)

let prop_chains_equiv_sequential =
  QCheck.Test.make
    ~name:"parallel rollforward = sequential (volume state + stats)" ~count:8
    QCheck.(
      quad (int_bound 9999) (int_bound 120) (int_bound 200) (int_bound 6))
    (fun (seed, archive_ms, gap, extra_workers) ->
      let crash_ms = archive_ms + 25 + gap in
      let workers = 1 + extra_workers in
      let _, digest_seq, stats_seq =
        run_recovery ~seed ~archive_ms ~crash_ms ~parallelism:`Sequential
      in
      let _, digest_par, stats_par =
        run_recovery ~seed ~archive_ms ~crash_ms
          ~parallelism:(`Chains workers)
      in
      if not (String.equal digest_seq digest_par) then
        QCheck.Test.fail_reportf
          "volume state diverged (seed=%d archive=%dms crash=%dms \
           workers=%d)@.-- sequential:@.%s@.-- chains:@.%s"
          seed archive_ms crash_ms workers digest_seq digest_par
      else if not (String.equal stats_seq stats_par) then
        QCheck.Test.fail_reportf
          "stats diverged (seed=%d archive=%dms crash=%dms \
           workers=%d)@.sequential: %s@.chains:     %s"
          seed archive_ms crash_ms workers stats_seq stats_par
      else true)

(* The same equivalence, with the instances themselves fanned out on the
   domain pool: each (seed, mode) run is a sealed cluster, so digests and
   stats must come back identical to the serial loop's whatever domain
   computed them. This is the recovery property's parallel instance
   driver. *)
let test_chains_equiv_parallel_instances () =
  let jobs = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let cases =
    List.map
      (fun seed -> (seed, 40 + (seed mod 60), 90 + (seed mod 110)))
      [ 3; 1981; 4242; 7919 ]
  in
  let arms =
    List.concat_map
      (fun case -> [ (case, `Sequential); (case, `Chains 8) ])
      cases
  in
  let outcome ((seed, archive_ms, crash_ms), parallelism) =
    let _, digest, stats = run_recovery ~seed ~archive_ms ~crash_ms ~parallelism in
    digest ^ "\n" ^ stats
  in
  let serial = List.map outcome arms in
  let pooled = Domain_pool.map ~jobs outcome arms in
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check string)
        (Printf.sprintf "arm %d identical across domains" i)
        s p)
    (List.combine serial pooled);
  (* And seq = chains still holds within the pooled results. *)
  let rec pairwise = function
    | seq :: par :: rest -> (seq, par) :: pairwise rest
    | [ _ ] | [] -> []
  in
  List.iteri
    (fun i (seq, par) ->
      let state_of outcome =
        match String.index_opt outcome '\n' with
        | Some cut -> String.sub outcome 0 cut
        | None -> outcome
      in
      Alcotest.(check string)
        (Printf.sprintf "case %d: chains = sequential state" i)
        (state_of seq) (state_of par))
    (pairwise pooled)

(* ------------------------------------------------------------------ *)
(* One-node transfer clusters *)

type recovered = {
  cluster : Cluster.t;
  digest : string;
  stats : Tmf.Rollforward.stats;
  unforced_at_archive : int;  (** Trail records not yet forced. *)
  open_at_crash : int;  (** Unresolved transactions when the node died. *)
}

(* One node holding [spec]'s volumes, the second writing its own trail
   $AUDIT2, and running only [transfers] from one four-terminal TCP. The
   node is archived at [archive_ms] and fails totally at [crash_ms] (or,
   without it, once every transfer is done); every processor stops with it,
   so nothing runs against the dead node before ROLLFORWARD. *)
let recover_transfer_node ~seed ~spec ~archive_ms ?crash_ms ~parallelism
    transfers =
  let config =
    { Hw_config.default with Hw_config.rollforward_parallelism = parallelism }
  in
  let cluster = Cluster.create ~seed ~config () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  List.iteri
    (fun i (_, volume) ->
      let trail = if i = 0 then None else Some "$AUDIT2" in
      Option.iter (fun name -> Cluster.add_audit_trail cluster ~node:1 ~name) trail;
      ignore
        (Cluster.add_volume cluster ~node:1 ~name:volume ~primary_cpu:(2 + i)
           ~backup_cpu:(3 - i) ?trail ()))
    spec.Workload.account_partitions;
  Workload.install_bank cluster spec;
  ignore (Workload.add_transfer_servers cluster ~node:1 ~count:2 ());
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:4
      ~program:Workload.transfer_program ()
  in
  List.iteri
    (fun i (from_account, to_account, amount) ->
      Tcp.submit tcp ~terminal:(i mod 4)
        (Workload.transfer_input_between ~from_account ~to_account ~amount))
    transfers;
  let state = Tmf.node_state (Cluster.tmf cluster) 1 in
  Cluster.run ~until:(Sim_time.milliseconds archive_ms) cluster;
  let archive = Cluster.take_archive cluster ~node:1 in
  let unforced_at_archive =
    Hashtbl.fold
      (fun _ trail acc -> acc + List.length (Audit_trail.unforced_records trail))
      state.Tmf.Tmf_state.trails 0
  in
  Cluster.run ?until:(Option.map Sim_time.milliseconds crash_ms) cluster;
  let open_at_crash =
    Tbl.String.fold
      (fun _ info acc ->
        if info.Tmf.Tmf_state.resolved = None then acc + 1 else acc)
      state.Tmf.Tmf_state.registry 0
  in
  for cpu = 0 to 3 do
    Cluster.fail_cpu cluster ~node:1 cpu
  done;
  Cluster.total_node_failure cluster ~node:1;
  Harness.drain cluster;
  Cluster.restore_cpu cluster ~node:1 0;
  let stats = Cluster.rollforward_node cluster ~node:1 archive in
  { cluster; digest = cluster_digest cluster; stats; unforced_at_archive;
    open_at_crash }

let check_same_recovery seq par =
  Alcotest.(check string) "stats match" (stats_repr seq.stats)
    (stats_repr par.stats);
  Alcotest.(check string) "volume state matches" seq.digest par.digest

(* ------------------------------------------------------------------ *)
(* Single-node fast path: commit markers under parallel replay *)

(* Transfers between disjoint account pairs: every commit takes the
   single-node fast path (its verdict exists only as a commit marker in the
   data trail), and no two transactions share a key, so the dependency DAG
   has one chain per transfer. *)
let marker_transfers =
  [ (0, 1, 25); (10, 11, 40); (20, 21, 15); (30, 31, 30); (40, 41, 10) ]

let test_fast_path_markers_parallel () =
  let spec =
    {
      Workload.accounts = 64;
      tellers = 4;
      branches = 2;
      initial_balance = 1_000;
      account_partitions = [ (1, "$DATA1") ];
      system_home = (1, "$DATA1");
    }
  in
  let recover parallelism =
    recover_transfer_node ~seed:7 ~spec ~archive_ms:0 ~parallelism
      marker_transfers
  in
  let seq = recover `Sequential and par = recover (`Chains 4) in
  check_int "every fast-path transfer redone"
    (List.length marker_transfers)
    par.stats.Tmf.Rollforward.transactions_redone;
  check_same_recovery seq par;
  (* Markers share one sentinel key; were they dependency-tracked, every
     fast-path commit would chain together and this would read 1. *)
  check_int "disjoint transfers replay as disjoint chains"
    (List.length marker_transfers)
    (Metrics.read_counter (Cluster.metrics par.cluster) "tmf.recovery_chains")

(* ------------------------------------------------------------------ *)
(* ROLLFORWARD on a node with two audit trails *)

(* Accounts split across $DA (trail $AUDIT) and $DB (trail $AUDIT2), and
   transfers that each debit one volume and credit the other, so every
   transaction writes both trails. Sequential replay makes each trail one
   chain and backs the losers out trail by trail rather than in one audit
   order across the trails; a volume writes to one trail only, so each
   volume keeps its own undo order, and the recovered state must match the
   dependency-chain replay's. The archive is taken while a transfer is half
   forced (its $AUDIT image on oxide, its $AUDIT2 images in the unforced
   tail) and commits afterwards: unless the replay redoes that tail, the
   node keeps the debit and loses the credit. *)
let test_two_trail_rollforward () =
  let spec =
    {
      Workload.accounts = 100;
      tellers = 10;
      branches = 5;
      initial_balance = 1_000;
      (* Accounts 0-49 on $DA, 50-99 on $DB. *)
      account_partitions = [ (1, "$DA"); (1, "$DB") ];
      system_home = (1, "$DA");
    }
  in
  let transfers =
    List.init 40 (fun i ->
        let on_da = i * 7 mod 50 and on_db = 50 + (i * 11 mod 50) in
        if i mod 2 = 0 then (on_da, on_db, 10 + i) else (on_db, on_da, 10 + i))
  in
  let recover parallelism =
    recover_transfer_node ~seed:47 ~spec ~archive_ms:500 ~crash_ms:1000
      ~parallelism transfers
  in
  let seq = recover `Sequential and par = recover (`Chains 4) in
  Alcotest.(check bool) "an unforced tail at the archive" true
    (seq.unforced_at_archive > 0);
  Alcotest.(check bool) "transactions open at the crash" true
    (seq.open_at_crash > 0);
  Alcotest.(check bool) "losers backed out" true
    (seq.stats.Tmf.Rollforward.images_undone > 0);
  check_same_recovery seq par;
  List.iter
    (fun (mode, run) ->
      check_int ("funds conserved under " ^ mode) 100_000
        (Workload.total_balance run.cluster spec))
    [ ("seq", seq); ("chains:4", par) ]

(* ------------------------------------------------------------------ *)
(* Audit files purged under load *)

(* One node whose data volume writes a trail of four records a file, so a
   short load of transfers closes, and purges, dozens of audit files. *)
let small_file_cluster ~seed ~parallelism =
  let config =
    { Hw_config.default with Hw_config.rollforward_parallelism = parallelism }
  in
  let cluster = Cluster.create ~seed ~config () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  let audit_volume =
    Tandem_disk.Volume.create (Cluster.engine cluster)
      ~metrics:(Cluster.metrics cluster) ~name:"1:$AUDIT4VOL"
      ~access_time:config.Hw_config.disc_access
  in
  Tmf.add_audit_trail (Cluster.tmf cluster) ~node:1 ~name:"$AUDIT4"
    ~volume:audit_volume ~records_per_file:4 ();
  ignore
    (Cluster.add_volume cluster ~node:1 ~name:"$DATA1" ~primary_cpu:2
       ~backup_cpu:3 ~trail:"$AUDIT4" ());
  let spec =
    {
      Workload.accounts = 200;
      tellers = 10;
      branches = 5;
      initial_balance = 1_000;
      account_partitions = [ (1, "$DATA1") ];
      system_home = (1, "$DATA1");
    }
  in
  Workload.install_bank cluster spec;
  ignore (Workload.add_transfer_servers cluster ~node:1 ~count:4 ());
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:4
      ~program:Workload.transfer_program ()
  in
  let trail =
    Hashtbl.find (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.trails
      "$AUDIT4"
  in
  (cluster, spec, tcp, trail)

(* [count] transfers among accounts [0 .. span - 1], spread over the TCP's
   four terminals. *)
let submit_transfers tcp ~count ~span =
  for i = 0 to count - 1 do
    let from_account = i * 7 mod span in
    let to_account = (from_account + 1 + (i * 13 mod (span - 1))) mod span in
    Tcp.submit tcp ~terminal:(i mod 4)
      (Workload.transfer_input_between ~from_account ~to_account
         ~amount:(1 + (i mod 50)))
  done

(* Files closed and dropped: with no crash, every closed file held four
   records. *)
let files_purged trail =
  (Audit_trail.next_sequence trail / 4) + 1 - Audit_trail.file_count trail

(* ROLLFORWARD from an archive taken after dozens of audit files were
   purged, with the load still running: the trail must have kept every file
   from the archive's position on, so the node comes back exactly as it
   was before the crash, under either replay mode. *)
let test_rollforward_after_purging () =
  List.iter
    (fun (mode, parallelism) ->
      let cluster, spec, tcp, trail =
        small_file_cluster ~seed:31 ~parallelism
      in
      submit_transfers tcp ~count:240 ~span:spec.Workload.accounts;
      Cluster.run ~until:(Sim_time.milliseconds 1_500) cluster;
      let purged_at_archive = files_purged trail in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d files purged before the archive" mode
           purged_at_archive)
        true (purged_at_archive >= 24);
      let archive = Cluster.take_archive cluster ~node:1 in
      Cluster.run cluster;
      check_int (mode ^ ": every transfer committed") 240 (Tcp.completed tcp);
      let before = cluster_digest cluster in
      for cpu = 0 to 3 do
        Cluster.fail_cpu cluster ~node:1 cpu
      done;
      Cluster.total_node_failure cluster ~node:1;
      Harness.drain cluster;
      Cluster.restore_cpu cluster ~node:1 0;
      let stats = Cluster.rollforward_node cluster ~node:1 archive in
      Alcotest.(check bool)
        (mode ^ ": post-archive work redone") true
        (stats.Tmf.Rollforward.transactions_redone > 0);
      Alcotest.(check string) (mode ^ ": pre-crash state") before
        (cluster_digest cluster);
      check_int (mode ^ ": funds conserved") 200_000
        (Workload.total_balance cluster spec))
    [ ("seq", `Sequential); ("chains:4", `Chains 4) ]

(* One transaction ships its audit to the trail ten times over two
   simulated seconds while transfers around it commit and settle, so its
   records span dozens of closed audit files. The trail purges files before
   it begins, holds every file from its first record on while it runs, and
   when it aborts, backout must find every one of its records; once it is
   settled, purging resumes. *)
let test_backout_across_purged_files () =
  let cluster, spec, tcp, trail =
    small_file_cluster ~seed:37 ~parallelism:`Sequential
  in
  let tmf = Cluster.tmf cluster in
  let engine = Cluster.engine cluster in
  let steps = 10 and first_own = 190 in
  let purged_at_begin = ref 0 and spanned = ref 0 and kept = ref 0 in
  let purged_at_abort = ref 0 and aborted = ref false in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      Fiber.sleep engine (Sim_time.milliseconds 1_000);
      purged_at_begin := files_purged trail;
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      let participant =
        Tbl.String.find (Tmf.node_state tmf 1).Tmf.Tmf_state.participants "$DATA1"
      in
      for step = 0 to steps - 1 do
        (match
           File_client.update (Cluster.files cluster) ~self:process ~transid
             ~file:Workload.account_file
             (Tandem_db.Key.of_int (first_own + step))
             (Tandem_db.Record.encode [ ("balance", "99999") ])
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "update failed: %a" File_client.pp_error e);
        ignore (participant.Tmf.Participant.flush_audit ~self:process transid);
        Fiber.sleep engine (Sim_time.milliseconds 200)
      done;
      (match Audit_trail.records_for trail ~transid with
      | first :: _ as records ->
          let last = List.nth records (List.length records - 1) in
          spanned := last.Audit_record.sequence - first.Audit_record.sequence;
          kept := List.length records
      | [] -> ());
      purged_at_abort := files_purged trail;
      aborted :=
        Result.is_ok
          (Tmf.abort_transaction tmf ~self:process ~reason:"test" transid));
  submit_transfers tcp ~count:300 ~span:first_own;
  Cluster.run cluster;
  Alcotest.(check bool) "the long transaction aborted" true !aborted;
  Alcotest.(check bool)
    (Printf.sprintf "files purged before it began (%d)" !purged_at_begin)
    true (!purged_at_begin >= 12);
  Alcotest.(check bool)
    (Printf.sprintf "its records span dozens of files (%d sequences)" !spanned)
    true
    (!spanned >= 4 * 24);
  check_int "the trail held every record it shipped" steps !kept;
  Alcotest.(check bool)
    (Printf.sprintf "purging resumed after it settled (%d, then %d)"
       !purged_at_abort (files_purged trail))
    true
    (files_purged trail >= !purged_at_abort + 24);
  check_int "every transfer committed" 300 (Tcp.completed tcp);
  for account = first_own to first_own + steps - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "account %d backed out" account)
      (Some 1_000)
      (Workload.account_balance cluster ~account)
  done;
  check_int "funds conserved" 200_000 (Workload.total_balance cluster spec)

(* ------------------------------------------------------------------ *)
(* Dependency index unit tests *)

let make_volume () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  ( engine,
    Tandem_disk.Volume.create engine ~metrics ~name:"$AUDITVOL"
      ~access_time:(Sim_time.milliseconds 25) )

let image ?(volume = "$DATA") ?(file = "F") ~key () =
  { Audit_record.volume; file; key; before = None; after = Some "v" }

let force trail engine =
  ignore (Fiber.spawn (fun () -> Audit_trail.force trail));
  Engine.run engine

let test_dependency_edges_logged () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  ignore (Audit_trail.append trail ~transid:(tx 1) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 2) (image ~key:"a" ()));
  (* Same transaction rewriting its own key logs no edge... *)
  ignore (Audit_trail.append trail ~transid:(tx 2) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 1) (image ~key:"b" ()));
  (* ...and distinct keys are independent histories. *)
  ignore (Audit_trail.append trail ~transid:(tx 3) (image ~key:"b" ()));
  check_edges "unforced edges are invisible" []
    (Audit_trail.dependency_edges trail);
  force trail engine;
  check_edges "edges per key, consecutive writers only"
    [ (1, 2); (1, 3) ]
    (Audit_trail.dependency_edges trail)

let test_dependency_markers_skipped () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  ignore
    (Audit_trail.append trail ~transid:(tx 1) Audit_record.commit_marker_image);
  ignore
    (Audit_trail.append trail ~transid:(tx 2) Audit_record.commit_marker_image);
  ignore (Audit_trail.append trail ~transid:(tx 1) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 2) (image ~key:"a" ()));
  force trail engine;
  (* Both transactions wrote the marker sentinel; only the real data key
     may produce an edge. *)
  check_edges "markers log no edges"
    [ (1, 2) ]
    (Audit_trail.dependency_edges trail)

let test_dependency_index_survives_crash () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  ignore (Audit_trail.append trail ~transid:(tx 1) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 2) (image ~key:"a" ()));
  force trail engine;
  ignore (Audit_trail.append trail ~transid:(tx 3) (image ~key:"a" ()));
  check_edges "the tail's edge is not yet forced"
    [ (1, 2) ]
    (Audit_trail.dependency_edges trail);
  Audit_trail.crash trail;
  check_edges "forced edges survive"
    [ (1, 2) ]
    (Audit_trail.dependency_edges trail);
  (* The writer history must have forgotten T3 with the tail: the next
     writer of "a" depends on T2, not on the lost record. *)
  ignore (Audit_trail.append trail ~transid:(tx 4) (image ~key:"a" ()));
  force trail engine;
  check_edges "post-crash edge chains from the surviving writer"
    [ (1, 2); (2, 4) ]
    (Audit_trail.dependency_edges trail)

let test_dependency_index_survives_purge () =
  let engine, volume = make_volume () in
  let trail =
    Audit_trail.create volume ~name:"$AUDIT" ~records_per_file:2 ()
  in
  ignore (Audit_trail.append trail ~transid:(tx 1) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 2) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 3) (image ~key:"a" ()));
  ignore (Audit_trail.append trail ~transid:(tx 4) (image ~key:"a" ()));
  force trail engine;
  check_int "one file archived away" 1
    (Audit_trail.purge_files_before trail ~sequence:2);
  (* T1's and T2's records went with the purged file, so no edge starts
     at a purged writer: the surviving writers T3 and T4 stay connected. *)
  check_edges "no edge from a purged writer"
    [ (3, 4) ]
    (Audit_trail.dependency_edges trail);
  ignore (Audit_trail.append trail ~transid:(tx 5) (image ~key:"a" ()));
  force trail engine;
  check_edges "edges still derived after purge"
    [ (3, 4); (4, 5) ]
    (Audit_trail.dependency_edges trail)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "recovery"
    [
      ( "dependency index",
        [
          Alcotest.test_case "edges logged per key" `Quick
            test_dependency_edges_logged;
          Alcotest.test_case "commit markers skipped" `Quick
            test_dependency_markers_skipped;
          Alcotest.test_case "crash drops the volatile tail" `Quick
            test_dependency_index_survives_crash;
          Alcotest.test_case "purge drops the archived prefix" `Quick
            test_dependency_index_survives_purge;
        ] );
      ( "audit purging",
        [
          Alcotest.test_case "rollforward after files are purged" `Quick
            test_rollforward_after_purging;
          Alcotest.test_case "backout across purged files" `Quick
            test_backout_across_purged_files;
        ] );
      ( "parallel rollforward",
        Alcotest.test_case "fast-path markers replay in parallel" `Quick
          test_fast_path_markers_parallel
        :: Alcotest.test_case "equivalence under parallel instances" `Quick
             test_chains_equiv_parallel_instances
        :: Alcotest.test_case "two audit trails, both modes" `Quick
             test_two_trail_rollforward
        :: qcheck [ prop_chains_equiv_sequential ] );
    ]
