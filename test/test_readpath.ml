(* Recovery corners and equivalence for the 2PC protocol optimizations:
   read-only participant votes, presumed abort, and the single-node fast
   path.

   The optimizations remove forced writes and messages — they must never
   change what the system decides. The equivalence test runs the same
   seeded inquiry/transfer schedule with every protocol knob off, each knob
   on alone, and all on, and requires home-node dispositions, final
   balances and (marker-filtered) forced audit content to be identical
   throughout. The recovery tests pin the corners the optimizations create:
   a home-node crash between phase one and phase two after a read-only
   child was pruned, and a voted-yes participant resolving an in-doubt
   transaction to abort by presumption after the home TMP lost its state. *)

open Tandem_sim
open Tandem_os
open Tandem_audit
open Tandem_encompass

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let node_state cluster node = Tmf.node_state (Cluster.tmf cluster) node

(* ------------------------------------------------------------------ *)
(* Read-only transactions commit with zero forces anywhere *)

let inquiry_cluster () =
  (* Accounts 0-49 on node 1, 50-99 on node 2. *)
  let cluster, spec =
    Workload.build_bank ~seed:11 ~nodes:2 ~accounts:100
      ~servers:[ `Inquiry 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:Workload.balance_inquiry_program ()
  in
  (cluster, tcp, spec)

let inquiry_input account =
  Tandem_db.Record.encode [ ("account", string_of_int account) ]

let test_read_only_commit_zero_forces () =
  let cluster, tcp, _spec = inquiry_cluster () in
  (* Quiesce the setup, then measure force deltas for the inquiry alone. *)
  Cluster.run cluster;
  let metrics = Cluster.metrics cluster in
  let audit_forces0 = Metrics.sum_counters metrics "audit.forces" in
  let disc_forces0 = Metrics.sum_counters metrics "disk.forced_writes" in
  (* Account 80 lives on node 2: a distributed transaction whose only
     remote participant is read-only. *)
  Tcp.submit tcp ~terminal:0 (inquiry_input 80);
  Cluster.run cluster;
  check_int "committed" 1 (Tcp.completed tcp);
  check_int "no audit-trail force anywhere" audit_forces0
    (Metrics.sum_counters metrics "audit.forces");
  check_int "no forced disc write anywhere" disc_forces0
    (Metrics.sum_counters metrics "disk.forced_writes");
  check_bool "read-only vote counted" true
    (Metrics.read_counter metrics "tmp.read_only_votes" >= 1);
  check_bool "pruned from phase two" true
    (Metrics.read_counter metrics "tmp.phase2_pruned" >= 1);
  (* The home still answers disposition queries; the pruned child kept no
     record at all. *)
  check_int "home records the commit" 1
    (Monitor_trail.count (node_state cluster 1).Tmf.Tmf_state.monitor
       Monitor_trail.Committed);
  check_int "pruned child records nothing" 0
    (Monitor_trail.count (node_state cluster 2).Tmf.Tmf_state.monitor
       Monitor_trail.Committed);
  List.iter
    (fun (node, volume) ->
      let dp = Cluster.discprocess cluster ~node ~volume in
      check_int "locks released" 0
        (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp)))
    [ (1, "$DATA1"); (2, "$DATA2") ]

(* ------------------------------------------------------------------ *)
(* Home crash between phase one and phase two, read-only child pruned *)

let test_crash_after_phase1_read_only_child () =
  let cluster, _, _spec = inquiry_cluster () in
  let tmf = Cluster.tmf cluster in
  let archive = ref None in
  ignore
    (Engine.schedule_at (Cluster.engine cluster) Sim_time.zero (fun () ->
         archive := Some (Cluster.take_archive cluster ~node:1)));
  let prepare_reply = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      (* Write at home, read-only at the child. *)
      (match
         File_client.update (Cluster.files cluster) ~self:process ~transid
           ~file:"ACCOUNT" (Tandem_db.Key.of_int 10)
           (Tandem_db.Record.encode [ ("balance", "4444") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "update failed: %a" File_client.pp_error e);
      (match
         File_client.read (Cluster.files cluster) ~self:process ~transid
           ~file:"ACCOUNT" (Tandem_db.Key.of_int 80)
       with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.fail "account 80 missing"
      | Error e -> Alcotest.failf "read failed: %a" File_client.pp_error e);
      (* Drive phase one at the child directly, as the home TMP would. *)
      match
        Rpc.call_name (Cluster.net cluster) ~self:process ~node:2 ~name:"$TMP"
          (Tmf.Tmp.Prepare transid)
      with
      | Ok reply -> prepare_reply := Some reply
      | Error e -> Alcotest.failf "prepare failed: %a" Rpc.pp_error e);
  Cluster.run cluster;
  (match !prepare_reply with
  | Some Tmf.Tmp.Readonly_reply -> ()
  | Some _ -> Alcotest.fail "expected a read-only vote"
  | None -> Alcotest.fail "prepare never answered");
  (* The read-only child released everything at the vote: no locks, no
     registry entry, nothing waiting for phase two. *)
  let dp2 = Cluster.discprocess cluster ~node:2 ~volume:"$DATA2" in
  check_int "child released locks at the vote" 0
    (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2));
  check_int "read-only vote counted" 1
    (Metrics.read_counter (Cluster.metrics cluster) "tmp.read_only_votes");
  (* The home crashes before phase two ever starts. *)
  Cluster.total_node_failure cluster ~node:1;
  let stats = Cluster.rollforward_node cluster ~node:1 (Option.get !archive) in
  check_int "nothing in doubt" 0 (List.length stats.Tmf.Rollforward.in_doubt);
  (* The unforced home write died with the node — presumed abort. *)
  Alcotest.(check (option int))
    "home write rolled back" (Some 1_000)
    (Workload.account_balance cluster ~account:10);
  check_int "child still holds nothing" 0
    (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2))

(* ------------------------------------------------------------------ *)
(* Presumed-abort resolution after the home TMP loses its state *)

let test_presumed_abort_resolution_after_restart () =
  let cluster, _spec =
    Workload.build_bank ~seed:11
      ~config:
        { Hw_config.default with transaction_time_limit = Sim_time.seconds 2 }
      ~nodes:2 ~accounts:100 ~servers:[] ()
  in
  let tmf = Cluster.tmf cluster in
  let prepare_reply = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      (* A remote write: the child holds locks and forced images after its
         yes vote. *)
      (match
         File_client.update (Cluster.files cluster) ~self:process ~transid
           ~file:"ACCOUNT" (Tandem_db.Key.of_int 80)
           (Tandem_db.Record.encode [ ("balance", "8888") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "update failed: %a" File_client.pp_error e);
      match
        Rpc.call_name (Cluster.net cluster) ~self:process ~node:2 ~name:"$TMP"
          (Tmf.Tmp.Prepare transid)
      with
      | Ok reply -> prepare_reply := Some reply
      | Error e -> Alcotest.failf "prepare failed: %a" Rpc.pp_error e);
  (* The home loses its volatile state (registry, unforced monitor records)
     before deciding: the child is in doubt, holding locks, and no
     phase-two message is ever coming. *)
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.seconds 1)
       (fun () -> Cluster.total_node_failure cluster ~node:1));
  Cluster.run ~until:(Sim_time.seconds 30) cluster;
  (match !prepare_reply with
  | Some Tmf.Tmp.Prepared_reply -> ()
  | Some _ -> Alcotest.fail "expected a yes vote"
  | None -> Alcotest.fail "prepare never answered");
  (* The child's transaction timer queried the home, found no record and no
     live transaction, and resolved to abort by presumption. *)
  check_bool "presumed abort counted" true
    (Metrics.read_counter (Cluster.metrics cluster) "tmp.presumed_aborts" >= 1);
  Alcotest.(check (option int))
    "remote write backed out" (Some 1_000)
    (Workload.account_balance cluster ~account:80);
  let dp2 = Cluster.discprocess cluster ~node:2 ~volume:"$DATA2" in
  check_int "child released its locks" 0
    (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2));
  check_int "child recorded the abort" 1
    (Monitor_trail.count (node_state cluster 2).Tmf.Tmf_state.monitor
       Monitor_trail.Aborted)

(* ------------------------------------------------------------------ *)
(* Knob-by-knob equivalence on a mixed inquiry/transfer schedule *)

let protocol_off =
  {
    Hw_config.default with
    Hw_config.tmp_read_only_votes = false;
    tmp_presumed_abort = false;
    tmp_single_node_fast_path = false;
  }

let knob_variants =
  [
    ( "read-only-votes",
      { protocol_off with Hw_config.tmp_read_only_votes = true } );
    ( "presumed-abort",
      { protocol_off with Hw_config.tmp_presumed_abort = true } );
    ( "fast-path",
      { protocol_off with Hw_config.tmp_single_node_fast_path = true } );
    ("all-on", Hw_config.default);
  ]

let mix_program =
  Screen_program.transaction ~name:"readpath-mix" (fun verbs input ->
      let server_class =
        match Tandem_db.Record.field input "class" with
        | Some cls -> cls
        | None -> "INQUIRY"
      in
      verbs.Screen_program.send ~server_class input)

let three_node_cluster ~config =
  let cluster, _spec =
    Workload.build_bank ~seed:11 ~config ~nodes:3 ~accounts:150
      ~servers:[ `Transfer 2; `Inquiry 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:mix_program ()
  in
  (cluster, tcp)

let tagged_transfer ~from_account ~to_account ~amount =
  Tandem_db.Record.encode
    [
      ("class", "TRANSFER");
      ("from", string_of_int from_account);
      ("to", string_of_int to_account);
      ("amount", string_of_int amount);
    ]

let tagged_inquiry account =
  Tandem_db.Record.encode
    [ ("class", "INQUIRY"); ("account", string_of_int account) ]

(* Local, remote and cross-node shapes: single-node inquiries (fast path +
   read-only home), remote inquiries (read-only child), a single-node
   transfer (fast path with images), and cross-node transfers (the general
   protocol). *)
let schedule =
  [
    tagged_inquiry 10;
    tagged_transfer ~from_account:60 ~to_account:110 ~amount:25;
    tagged_inquiry 120;
    tagged_transfer ~from_account:10 ~to_account:30 ~amount:15;
    tagged_inquiry 70;
    tagged_transfer ~from_account:115 ~to_account:70 ~amount:40;
    tagged_inquiry 30;
    tagged_transfer ~from_account:80 ~to_account:120 ~amount:30;
  ]

type observation = {
  completed : int;
  dispositions : (string * string) list; (* home node *)
  audit_records : string list list; (* per node, markers filtered *)
  balances : int option list;
}

(* Rendered without the sequence number: fast-path commit markers occupy
   sequence slots, shifting the data records' numbering without changing
   their content or order. *)
let render_record (r : Audit_record.t) =
  let image = r.Audit_record.image in
  Printf.sprintf "%s|%s|%s|%s|%s|%s"
    (Transid.to_string r.Audit_record.transid)
    image.Audit_record.volume image.Audit_record.file image.Audit_record.key
    (Option.value ~default:"-" image.Audit_record.before)
    (Option.value ~default:"-" image.Audit_record.after)

let observe ~config =
  let cluster, tcp = three_node_cluster ~config in
  List.iter (fun input -> Tcp.submit tcp ~terminal:0 input) schedule;
  Cluster.run cluster;
  let dispositions =
    List.map
      (fun (transid, d) ->
        ( Transid.to_string transid,
          match d with
          | Monitor_trail.Committed -> "committed"
          | Monitor_trail.Aborted -> "aborted" ))
      (Monitor_trail.entries (node_state cluster 1).Tmf.Tmf_state.monitor)
  in
  let audit_records =
    List.map
      (fun node ->
        let state = node_state cluster node in
        Hashtbl.fold (fun name trail acc -> (name, trail) :: acc)
          state.Tmf.Tmf_state.trails []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.concat_map (fun (name, trail) ->
               Audit_trail.records_from trail ~sequence:0
               |> List.filter (fun r ->
                      not (Audit_record.is_commit_marker r.Audit_record.image))
               |> List.map (fun r -> name ^ ":" ^ render_record r)))
      [ 1; 2; 3 ]
  in
  let balances =
    List.map
      (fun account -> Workload.account_balance cluster ~account)
      [ 10; 30; 60; 70; 80; 110; 115; 120 ]
  in
  { completed = Tcp.completed tcp; dispositions; audit_records; balances }

let test_knob_equivalence () =
  let baseline = observe ~config:protocol_off in
  check_int "baseline completes the schedule" (List.length schedule)
    baseline.completed;
  List.iter
    (fun (label, config) ->
      let optimized = observe ~config in
      check_int (label ^ ": same completions") baseline.completed
        optimized.completed;
      Alcotest.(check (list (pair string string)))
        (label ^ ": home dispositions identical")
        baseline.dispositions optimized.dispositions;
      List.iteri
        (fun i (base, knob) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: node %d audit content identical" label (i + 1))
            base knob)
        (List.combine baseline.audit_records optimized.audit_records);
      Alcotest.(check (list (option int)))
        (label ^ ": balances identical")
        baseline.balances optimized.balances)
    knob_variants

let () =
  Alcotest.run "tandem_readpath"
    [
      ( "read-only",
        [
          Alcotest.test_case "distributed inquiry commits with zero forces"
            `Quick test_read_only_commit_zero_forces;
          Alcotest.test_case "home crash after a pruned read-only vote"
            `Quick test_crash_after_phase1_read_only_child;
        ] );
      ( "presumed abort",
        [
          Alcotest.test_case "in-doubt child resolves to abort after restart"
            `Quick test_presumed_abort_resolution_after_restart;
        ] );
      ( "knob equivalence",
        [
          Alcotest.test_case "dispositions, audit content and balances"
            `Quick test_knob_equivalence;
        ] );
    ]
