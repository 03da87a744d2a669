(* End-to-end integration tests: full clusters running transactions through
   TCP -> server -> DISCPROCESS -> TMF, with fault injection. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Tandem_db [@@warning "-33"]

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One node, one data volume, the banking schema, BANK and TRANSFER server
   classes, a TCP with [terminals] terminals running [program]. *)
let single_node_cluster ?config ?(terminals = 4)
    ?(program = Workload.debit_credit_program) () =
  let cluster, spec =
    Workload.build_bank ~seed:7 ?config ~accounts:100
      ~servers:[ `Bank 2; `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~primary_cpu:0 ~backup_cpu:1
      ~terminals ~program ()
  in
  (cluster, tcp, spec)

let dc_input ?(account = 3) ?(delta = 50) () =
  Tandem_db.Record.encode
    [
      ("account", string_of_int account);
      ("teller", "1");
      ("branch", "1");
      ("delta", string_of_int delta);
    ]

(* ------------------------------------------------------------------ *)

let test_single_node_commit () =
  let cluster, tcp, spec = single_node_cluster () in
  Tcp.submit tcp ~terminal:0 (dc_input ~account:3 ~delta:50 ());
  Cluster.run cluster;
  check_int "completed" 1 (Tcp.completed tcp);
  check_int "no failures" 0 (Tcp.failures tcp);
  Alcotest.(check (option int)) "balance updated" (Some 1_050)
    (Workload.account_balance cluster ~account:3);
  check_int "history written" 1 (Workload.history_count cluster spec);
  (* The commit record is in the Monitor Audit Trail... *)
  let monitor = (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.monitor in
  check_int "one commit recorded" 1
    (Tandem_audit.Monitor_trail.count monitor Tandem_audit.Monitor_trail.Committed);
  (* ...locks are released, and the audit trail was forced. *)
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  check_int "locks released" 0
    (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp));
  check_int "audit buffers drained" 0 (Discprocess.audit_buffer_depth dp);
  let trail =
    Hashtbl.find (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.trails "$AUDIT"
  in
  (* 4 data images (account, teller, branch, history) plus the fast-path
     commit marker, forced last so it carries the commit decision. *)
  check_int "audit images in trail" 5 (Tandem_audit.Audit_trail.next_sequence trail);
  check_bool "trail forced through" true
    (Tandem_audit.Audit_trail.forced_up_to trail = 4)

let test_several_sequential_transactions () =
  let cluster, tcp, spec = single_node_cluster () in
  for i = 0 to 9 do
    Tcp.submit tcp ~terminal:(i mod 4) (dc_input ~account:i ~delta:10 ())
  done;
  Cluster.run cluster;
  check_int "all completed" 10 (Tcp.completed tcp);
  check_int "balance conservation" ((100 * 1_000) + 100)
    (Workload.total_balance cluster spec);
  check_int "history count" 10 (Workload.history_count cluster spec)

let test_abort_program_backs_out () =
  (* A program that does the debit-credit work and then deliberately calls
     ABORT-TRANSACTION: no effect may persist. *)
  let program =
    Screen_program.make ~name:"abortive" (fun verbs input ->
        verbs.Screen_program.begin_transaction ();
        let _ = verbs.Screen_program.send ~server_class:"BANK" input in
        verbs.Screen_program.abort_transaction ~reason:"user cancelled";
        "unreachable")
  in
  let cluster, tcp, spec = single_node_cluster ~program () in
  Tcp.submit tcp ~terminal:0 (dc_input ~account:3 ~delta:500 ());
  Cluster.run cluster;
  check_int "program aborted" 1 (Tcp.program_aborts tcp);
  check_int "nothing completed" 0 (Tcp.completed tcp);
  Alcotest.(check (option int)) "balance untouched" (Some 1_000)
    (Workload.account_balance cluster ~account:3);
  check_int "history empty" 0 (Workload.history_count cluster spec);
  let monitor = (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.monitor in
  check_int "abort recorded" 1
    (Tandem_audit.Monitor_trail.count monitor Tandem_audit.Monitor_trail.Aborted);
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  check_int "locks released after backout" 0
    (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp))

let test_file_invariants_after_mixed_run () =
  let cluster, tcp, _spec = single_node_cluster () in
  let rng = Rng.create ~seed:99 in
  for i = 0 to 29 do
    Tcp.submit tcp ~terminal:(i mod 4)
      (dc_input ~account:(Rng.int rng 100) ~delta:(Rng.int_in_range rng ~lo:(-20) ~hi:20) ())
  done;
  Cluster.run cluster;
  check_int "all completed" 30 (Tcp.completed tcp);
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  List.iter
    (fun file_name ->
      match Discprocess.file dp file_name with
      | Some file -> (
          match Tandem_db.File.check_invariants file with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" file_name m)
      | None -> Alcotest.failf "missing file %s" file_name)
    [ "ACCOUNT"; "TELLER"; "BRANCH"; "HISTORY" ]

let test_deadlock_restart_resolves () =
  (* Two symmetric transfers (a->b and b->a) submitted together: lock
     timeout + RESTART-TRANSACTION must let both eventually commit. *)
  let cluster, _, spec =
    single_node_cluster ~program:Workload.transfer_program ()
  in
  ignore spec;
  let tcp2 =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP2" ~primary_cpu:1 ~backup_cpu:0
      ~terminals:2 ~program:Workload.transfer_program ()
  in
  Tcp.submit tcp2 ~terminal:0
    (Workload.transfer_input_between ~from_account:1 ~to_account:2 ~amount:10);
  Tcp.submit tcp2 ~terminal:1
    (Workload.transfer_input_between ~from_account:2 ~to_account:1 ~amount:5);
  Cluster.run cluster;
  check_int "both completed" 2 (Tcp.completed tcp2);
  Alcotest.(check (option int)) "account 1 net -5" (Some 995)
    (Workload.account_balance cluster ~account:1);
  Alcotest.(check (option int)) "account 2 net +5" (Some 1_005)
    (Workload.account_balance cluster ~account:2)

let test_server_cpu_failure_restarts_transaction () =
  let cluster, tcp, _ = single_node_cluster () in
  (* Server class members sit on cpus round-robin; kill one mid-run. *)
  Tcp.submit tcp ~terminal:0 (dc_input ());
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.milliseconds 5)
       (fun () -> Cluster.fail_cpu cluster ~node:1 0));
  Cluster.run cluster;
  (* Whatever the timing, the input must eventually commit exactly once. *)
  check_int "completed exactly once" 1 (Tcp.completed tcp);
  Alcotest.(check (option int)) "effect applied once" (Some 1_050)
    (Workload.account_balance cluster ~account:3)

let test_discprocess_takeover_is_transparent () =
  let cluster, tcp, _ = single_node_cluster () in
  Tcp.submit tcp ~terminal:0 (dc_input ());
  (* Fail the DISCPROCESS primary's cpu (2) shortly after the run starts. *)
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.milliseconds 8)
       (fun () -> Cluster.fail_cpu cluster ~node:1 2));
  Cluster.run cluster;
  check_int "committed despite volume takeover" 1 (Tcp.completed tcp);
  Alcotest.(check (option int)) "balance correct" (Some 1_050)
    (Workload.account_balance cluster ~account:3);
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  check_bool "discprocess pair survived" true (Discprocess.is_up dp);
  (* "Recovery from the failure of a component such as a primary
     DISCPROCESS' processor ... is handled automatically by the operating
     system transparently to transaction processing": not a single
     transaction entered the aborting state. *)
  let census =
    Tmf.Tx_table.transition_census
      (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.tx_tables
  in
  check_bool "no transaction was aborted" true
    (not
       (List.exists
          (fun ((_, into), _) -> into = Tmf.Tx_state.Aborting)
          census))

let test_tcp_takeover_reexecutes_input () =
  let cluster, tcp, _ = single_node_cluster () in
  Tcp.submit tcp ~terminal:0 (dc_input ());
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.milliseconds 3)
       (fun () -> Cluster.fail_cpu cluster ~node:1 0));
  Cluster.run cluster;
  check_int "input carried to completion" 1 (Tcp.completed tcp);
  Alcotest.(check (option int)) "applied exactly once" (Some 1_050)
    (Workload.account_balance cluster ~account:3)

(* ------------------------------------------------------------------ *)
(* Distributed transactions *)

let two_node_cluster ?config () =
  (* Accounts 0-49 on node 1, 50-99 on node 2. *)
  let cluster, spec =
    Workload.build_bank ~seed:11 ?config ~nodes:2 ~accounts:100
      ~servers:[ `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~primary_cpu:0 ~backup_cpu:1
      ~terminals:2 ~program:Workload.transfer_program ()
  in
  (cluster, tcp, spec)

let test_distributed_commit () =
  let cluster, tcp, spec = two_node_cluster () in
  (* Account 10 lives on node 1, account 80 on node 2. *)
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
  Cluster.run cluster;
  check_int "committed" 1 (Tcp.completed tcp);
  Alcotest.(check (option int)) "debit applied (node 1)" (Some 900)
    (Workload.account_balance cluster ~account:10);
  Alcotest.(check (option int)) "credit applied (node 2)" (Some 1_100)
    (Workload.account_balance cluster ~account:80);
  (* Both nodes recorded the disposition; locks released everywhere. *)
  let tmf = Cluster.tmf cluster in
  let committed node =
    Tandem_audit.Monitor_trail.count (Tmf.node_state tmf node).Tmf.Tmf_state.monitor
      Tandem_audit.Monitor_trail.Committed
  in
  check_int "home commit record" 1 (committed 1);
  check_int "participant commit record" 1 (committed 2);
  List.iter
    (fun (node, volume) ->
      let dp = Cluster.discprocess cluster ~node ~volume in
      check_int "locks released" 0
        (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp)))
    [ (1, "$DATA1"); (2, "$DATA2") ];
  (* Funds conserved. *)
  check_int "conservation" (100 * 1_000) (Workload.total_balance cluster spec)

let test_partition_before_commit_aborts () =
  let cluster, tcp, spec = two_node_cluster () in
  (* Partition the network after the work is done but before the commit:
     the transfer server finishes its remote update ~80ms in; END arrives
     after that. Cutting the link at 40ms lands mid-transaction. *)
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.milliseconds 40)
       (fun () -> Net.fail_link (Cluster.net cluster) 1 2));
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
  (* Heal much later so safe-delivery can finish the cleanup. *)
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.seconds 60) (fun () ->
         Net.restore_link (Cluster.net cluster) 1 2));
  Cluster.run ~until:(Sim_time.minutes 5) cluster;
  (* The transaction cannot have committed on one side only. *)
  let b10 = Workload.account_balance cluster ~account:10 in
  let b80 = Workload.account_balance cluster ~account:80 in
  (match (b10, b80) with
  | Some 1_000, Some 1_000 | Some 900, Some 1_100 -> ()
  | _ ->
      Alcotest.failf "atomicity violated: %s / %s"
        (match b10 with Some b -> string_of_int b | None -> "?")
        (match b80 with Some b -> string_of_int b | None -> "?"));
  check_int "conservation" (100 * 1_000) (Workload.total_balance cluster spec);
  (* After healing, no locks are stuck anywhere. *)
  List.iter
    (fun (node, volume) ->
      let dp = Cluster.discprocess cluster ~node ~volume in
      check_int "no stuck locks" 0
        (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp)))
    [ (1, "$DATA1"); (2, "$DATA2") ]

let test_remote_begin_registers_participant () =
  let cluster, tcp, _ = two_node_cluster () in
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:1);
  Cluster.run cluster;
  let metrics = Cluster.metrics cluster in
  check_int "one remote begin" 1 (Metrics.read_counter metrics "tmf.remote_begins");
  check_bool "phase one crossed the network" true
    (Metrics.read_counter metrics "tmf.prepares_sent" >= 1);
  check_bool "phase two used safe delivery" true
    (Metrics.read_counter metrics "tmf.safe_deliveries" >= 1)

(* ------------------------------------------------------------------ *)
(* ROLLFORWARD *)

let test_rollforward_recovers_committed () =
  let cluster, tcp, spec = single_node_cluster () in
  (* Work before the archive. *)
  Tcp.submit tcp ~terminal:0 (dc_input ~account:1 ~delta:100 ());
  Cluster.run cluster;
  let archive = Cluster.take_archive cluster ~node:1 in
  (* Work after the archive (will be redone from the audit trail). *)
  Tcp.submit tcp ~terminal:1 (dc_input ~account:2 ~delta:200 ());
  Tcp.submit tcp ~terminal:2 (dc_input ~account:3 ~delta:300 ());
  Cluster.run cluster;
  check_int "three committed" 3 (Tcp.completed tcp);
  (* Total node failure, then ROLLFORWARD from the archive. *)
  Cluster.total_node_failure cluster ~node:1;
  let stats = Cluster.rollforward_node cluster ~node:1 archive in
  check_int "two transactions redone" 2 stats.Tmf.Rollforward.transactions_redone;
  check_bool "images reapplied" true (stats.Tmf.Rollforward.images_applied >= 8);
  Alcotest.(check (option int)) "pre-archive state" (Some 1_100)
    (Workload.account_balance cluster ~account:1);
  Alcotest.(check (option int)) "redone 1" (Some 1_200)
    (Workload.account_balance cluster ~account:2);
  Alcotest.(check (option int)) "redone 2" (Some 1_300)
    (Workload.account_balance cluster ~account:3);
  check_int "conservation after recovery" ((100 * 1_000) + 600)
    (Workload.total_balance cluster spec);
  (* Structural integrity after redo. *)
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  (match Discprocess.file dp "ACCOUNT" with
  | Some file -> (
      match Tandem_db.File.check_invariants file with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
  | None -> Alcotest.fail "no account file")

let test_rollforward_discards_uncommitted () =
  (* An in-flight (never committed) transaction's images must not be
     redone even if its audit records were forced as part of a later
     commit's group force. *)
  let cluster, tcp, _ = single_node_cluster ~terminals:2 () in
  let archive = Cluster.take_archive cluster ~node:1 in
  (* Terminal 0: commits normally. Terminal 1: program holds the
     transaction open (never ends) — simulate by a program that sends then
     sleeps forever via a lock it can never get... simpler: submit a
     transfer to a locked account pair. Instead, run one commit, then
     inject an uncommitted mutation directly through a client process. *)
  Tcp.submit tcp ~terminal:0 (dc_input ~account:1 ~delta:100 ());
  Cluster.run cluster;
  let tmf = Cluster.tmf cluster in
  let dangling = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      dangling := Some transid;
      match
        File_client.update (Cluster.files cluster) ~self:process ~transid
          ~file:"ACCOUNT" (Tandem_db.Key.of_int 5)
          (Tandem_db.Record.encode [ ("balance", "999999") ])
      with
      | Ok () -> () (* leave the transaction open forever *)
      | Error e -> Alcotest.failf "update failed: %a" File_client.pp_error e);
  Cluster.run cluster;
  (* Force the trail so the dangling images are on disc like a crash would
     find them, then fail the node and recover. *)
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      match !dangling with
      | Some transid -> (
          let state = Tmf.node_state tmf 1 in
          match Tbl.String.find_opt state.Tmf.Tmf_state.participants "$DATA1" with
          | Some participant ->
              ignore (participant.Tmf.Participant.flush_audit ~self:process transid);
              Tandem_audit.Audit_trail.force
                (Hashtbl.find state.Tmf.Tmf_state.trails "$AUDIT")
          | None -> ())
      | None -> ());
  Cluster.run cluster;
  Cluster.total_node_failure cluster ~node:1;
  let stats = Cluster.rollforward_node cluster ~node:1 archive in
  check_int "one redone" 1 stats.Tmf.Rollforward.transactions_redone;
  check_int "one discarded" 1 stats.Tmf.Rollforward.transactions_discarded;
  Alcotest.(check (option int)) "committed survives" (Some 1_100)
    (Workload.account_balance cluster ~account:1);
  Alcotest.(check (option int)) "uncommitted invisible" (Some 1_000)
    (Workload.account_balance cluster ~account:5)


(* ------------------------------------------------------------------ *)
(* Order entry: multi-key access and index maintenance under backout *)

let order_cluster () =
  let cluster = Cluster.create ~seed:21 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  ignore (Cluster.add_volume cluster ~node:1 ~name:"$DATA1" ~primary_cpu:2 ~backup_cpu:3 ());
  Workload.install_orders cluster ~home:(1, "$DATA1");
  ignore (Workload.add_order_servers cluster ~node:1 ~count:2);
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~primary_cpu:0 ~backup_cpu:1
      ~terminals:4 ~program:Workload.order_entry_program ()
  in
  (cluster, tcp)

let test_order_entry_index_lookup () =
  let cluster, tcp = order_cluster () in
  Tcp.submit tcp ~terminal:0 (Workload.new_order_input ~order:1 ~customer:7 ~item:3);
  Tcp.submit tcp ~terminal:1 (Workload.new_order_input ~order:2 ~customer:7 ~item:4);
  Tcp.submit tcp ~terminal:2 (Workload.new_order_input ~order:3 ~customer:9 ~item:5);
  Cluster.run cluster;
  check_int "three committed" 3 (Tcp.completed tcp);
  (* Multi-key access through the server path. *)
  Tcp.submit tcp ~terminal:3 (Workload.customer_query_input ~customer:7);
  Cluster.run cluster;
  (match Tcp.last_output tcp ~terminal:3 with
  | Some output ->
      Alcotest.(check (option int)) "index query" (Some 2)
        (Tandem_db.Record.int_field output "count")
  | None -> Alcotest.fail "no query output");
  check_int "direct index count" 2
    (Workload.orders_for_customer cluster ~home:(1, "$DATA1") ~customer:7)

let test_order_abort_unwinds_index () =
  let cluster, _tcp = order_cluster () in
  (* Insert an order inside a transaction, then abort: the index entry must
     vanish with the record. *)
  let tmf = Cluster.tmf cluster in
  let outcome = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      let payload =
        Tandem_db.Record.encode [ ("customer", "7"); ("item", "1"); ("status", "open") ]
      in
      (match
         File_client.insert (Cluster.files cluster) ~self:process ~transid
           ~file:Workload.order_file (Tandem_db.Key.of_int 99) payload
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "insert failed: %a" File_client.pp_error e);
      outcome := Some (Tmf.abort_transaction tmf ~self:process ~reason:"test" transid));
  Cluster.run cluster;
  (match !outcome with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "abort failed");
  check_int "no index entries" 0
    (Workload.orders_for_customer cluster ~home:(1, "$DATA1") ~customer:7);
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  match Discprocess.file dp Workload.order_file with
  | Some file -> (
      match Tandem_db.File.check_invariants file with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
  | None -> Alcotest.fail "no order file"

(* ------------------------------------------------------------------ *)
(* File-granularity locks *)

let test_file_lock_excludes_other_transactions () =
  let cluster, tcp, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let locked = ref false in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      (match
         File_client.lock_file (Cluster.files cluster) ~self:process ~transid
           ~file:"ACCOUNT"
       with
      | Ok () -> locked := true
      | Error e -> Alcotest.failf "file lock failed: %a" File_client.pp_error e);
      (* Hold the file lock for two seconds, then commit. *)
      Fiber.sleep (Cluster.engine cluster) (Sim_time.seconds 2);
      ignore (Tmf.end_transaction tmf ~self:process transid));
  (* Meanwhile a debit-credit needs a record in ACCOUNT: it must wait (or
     restart) and still commit after the lock is gone. *)
  Tcp.submit tcp ~terminal:0 (dc_input ~account:3 ~delta:50 ());
  Cluster.run cluster;
  check_bool "file lock was taken" true !locked;
  check_int "transaction completed after file lock released" 1 (Tcp.completed tcp);
  Alcotest.(check (option int)) "effect applied" (Some 1_050)
    (Workload.account_balance cluster ~account:3)

(* ------------------------------------------------------------------ *)
(* Exactly-once: the DISCPROCESS keeps one reply slot per requester, which
   replays a retried operation instead of executing it twice. These tests send
   raw DISCPROCESS messages, with op ids of their own choosing, as a File
   System path retry would resend them. *)

(* Sending raw DISCPROCESS messages bypasses the File System, so do its
   participant bookkeeping by hand. *)
let begin_raw tmf =
  let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
  Tmf.note_local_participant tmf ~node:1 ~volume:"$DATA1" transid;
  transid

let raw_update ~op_id transid ~account ~balance =
  Dp_protocol.Dp_update
    {
      op =
        {
          Dp_protocol.op_id;
          transid = Some transid;
          lock_timeout = Sim_time.seconds 5;
        };
      file = "ACCOUNT";
      key = Tandem_db.Key.of_int account;
      payload = Tandem_db.Record.encode [ ("balance", string_of_int balance) ];
    }

let send_raw cluster process ?timeout ?retries payload =
  Rpc.call_name (Cluster.net cluster) ~self:process ~node:1 ~name:"$DATA1"
    ?timeout ?retries payload

let send_ok cluster process payload =
  match send_raw cluster process payload with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "rpc failed: %a" Rpc.pp_error e

(* The data images a transaction left in $AUDIT: the fast-path commit marker
   shares the transid but is not an operation. *)
let data_images cluster transid =
  let state = Tmf.node_state (Cluster.tmf cluster) 1 in
  let trail = Hashtbl.find state.Tmf.Tmf_state.trails "$AUDIT" in
  List.length
    (List.filter
       (fun r ->
         not
           (Tandem_audit.Audit_record.is_commit_marker
              r.Tandem_audit.Audit_record.image))
       (Tandem_audit.Audit_trail.records_for trail
          ~transid:(Tmf.Transid.to_string transid)))

let check_done what = function
  | Dp_protocol.Dp_done _ -> ()
  | _ -> Alcotest.failf "%s: expected Dp_done" what

let test_reply_slot_replays_duplicate_op () =
  let cluster, _, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let transid = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let tx = begin_raw tmf in
      transid := Some tx;
      let payload = raw_update ~op_id:424_242 tx ~account:3 ~balance:7777 in
      (* The same logical operation sent twice, as a path retry would. *)
      check_done "first" (send_ok cluster process payload);
      check_done "replay" (send_ok cluster process payload);
      ignore (Tmf.end_transaction tmf ~self:process tx));
  Cluster.run cluster;
  let transid = Option.get !transid in
  let state = Tmf.node_state tmf 1 in
  (match
     Tandem_audit.Monitor_trail.disposition_of state.Tmf.Tmf_state.monitor
       ~transid:(Tmf.Transid.to_string transid)
   with
  | Some Tandem_audit.Monitor_trail.Committed -> ()
  | _ -> Alcotest.fail "transaction did not commit");
  (* The update is absolute, so only the audit trail proves single
     execution. *)
  check_int "one audit image only" 1 (data_images cluster transid)

(* An operation the requester gave up on (its path timed out while it waited
   on a lock) completes after the requester's next one: the newer reply stays
   in the slot, so a retry of the newer operation still replays. *)
let test_late_completion_keeps_newer_reply () =
  let cluster, _, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let engine = Cluster.engine cluster in
  let newer = ref None in
  let gave_up = ref false in
  (* The holder keeps account 5 locked for a second. *)
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let tx = begin_raw tmf in
      check_done "holder"
        (send_ok cluster process
           (raw_update ~op_id:100_000 tx ~account:5 ~balance:1));
      Fiber.sleep engine (Sim_time.seconds 1);
      ignore (Tmf.end_transaction tmf ~self:process tx));
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      Fiber.sleep engine (Sim_time.milliseconds 10);
      let older = begin_raw tmf in
      (match
         send_raw cluster process ~timeout:(Sim_time.milliseconds 100)
           ~retries:0
           (raw_update ~op_id:100_001 older ~account:5 ~balance:2)
       with
      | Error `Timeout -> gave_up := true
      | Ok _ | Error _ -> ());
      let tx = begin_raw tmf in
      newer := Some tx;
      let payload = raw_update ~op_id:100_002 tx ~account:6 ~balance:3 in
      check_done "newer" (send_ok cluster process payload);
      (* The holder commits at 1 s; the older update then gets its lock and
         completes. *)
      Fiber.sleep engine (Sim_time.seconds 3);
      check_done "replay of the newer" (send_ok cluster process payload);
      ignore (Tmf.end_transaction tmf ~self:process tx);
      ignore (Tmf.end_transaction tmf ~self:process older));
  Cluster.run cluster;
  check_bool "the older request timed out" true !gave_up;
  Alcotest.(check (option int)) "the older update completed late" (Some 2)
    (Workload.account_balance cluster ~account:5);
  check_int "newer operation executed once" 1
    (data_images cluster (Option.get !newer))

(* A retry older than the requester's newest completed operation belongs to
   an operation it gave up on: it is refused, not executed. *)
let test_stale_duplicate_not_executed () =
  let cluster, _, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let stale_reply = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let tx = begin_raw tmf in
      let first = raw_update ~op_id:200_001 tx ~account:7 ~balance:1111 in
      check_done "first" (send_ok cluster process first);
      check_done "second"
        (send_ok cluster process
           (raw_update ~op_id:200_002 tx ~account:7 ~balance:2222));
      stale_reply := Some (send_ok cluster process first);
      ignore (Tmf.end_transaction tmf ~self:process tx));
  Cluster.run cluster;
  check_bool "stale duplicate refused" true
    (match !stale_reply with
    | Some (Dp_protocol.Dp_error (Dp_protocol.Bad_request _)) -> true
    | _ -> false);
  Alcotest.(check (option int)) "the newer update stands" (Some 2222)
    (Workload.account_balance cluster ~account:7)

(* Two requesters interleave on one volume: each one's retry replays its own
   reply, whatever the other sent in between. *)
let test_interleaved_requesters_replay () =
  let cluster, _, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let engine = Cluster.engine cluster in
  let transids = ref [] in
  let requester ~start ~op_id ~account =
    Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
        Fiber.sleep engine (Sim_time.milliseconds start);
        let tx = begin_raw tmf in
        transids := tx :: !transids;
        let payload = raw_update ~op_id tx ~account ~balance:4444 in
        check_done "first" (send_ok cluster process payload);
        (* The other requester's operation completes before this retry. *)
        Fiber.sleep engine (Sim_time.milliseconds 50);
        check_done "replay" (send_ok cluster process payload);
        ignore (Tmf.end_transaction tmf ~self:process tx))
  in
  requester ~start:0 ~op_id:300_001 ~account:8;
  requester ~start:20 ~op_id:300_002 ~account:9;
  Cluster.run cluster;
  check_int "two transactions" 2 (List.length !transids);
  List.iter
    (fun tx -> check_int "executed once" 1 (data_images cluster tx))
    !transids

(* A total failure drops the slots with the rest of the volume's volatile
   state, so a duplicate after it executes afresh. *)
let test_total_failure_resets_reply_slots () =
  let cluster, _, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  let depths = ref [] in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let tx = begin_raw tmf in
      let payload = raw_update ~op_id:400_001 tx ~account:10 ~balance:5555 in
      check_done "first" (send_ok cluster process payload);
      Discprocess.simulate_total_failure dp;
      let after_failure = Discprocess.audit_buffer_depth dp in
      check_done "duplicate" (send_ok cluster process payload);
      depths := [ after_failure; Discprocess.audit_buffer_depth dp ];
      ignore (Tmf.abort_transaction tmf ~self:process ~reason:"test" tx));
  Cluster.run cluster;
  Alcotest.(check (list int)) "buffer dropped, then refilled" [ 0; 1 ] !depths

(* ------------------------------------------------------------------ *)
(* Post-crash write revert: a write whose node fails totally while it waits
   on the disc lands in the post-crash image; the DISCPROCESS must undo it
   and reject the request, since no backout will ever come for it. *)

let write_across_total_failure request =
  let cluster, _, spec = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  let store = Discprocess.store dp in
  (* One history entry, so an append has a block to read; then everything
     on the disc and a cold cache, so the write's block reads go there. *)
  Store.set_charging store false;
  ignore (File.append (Option.get (Discprocess.file dp Workload.history_file)) "");
  Store.set_charging store true;
  Store.overwrite_disk_image store;
  let misses = Store.cache_misses store in
  let reply = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      Tmf.note_local_participant tmf ~node:1 ~volume:"$DATA1" transid;
      let op =
        {
          Dp_protocol.op_id = 515_151;
          transid = Some transid;
          lock_timeout = Sim_time.seconds 1;
        }
      in
      match
        Rpc.call_name (Cluster.net cluster) ~self:process ~node:1
          ~name:"$DATA1" (request op)
      with
      | Ok answer -> reply := Some answer
      | Error e -> Alcotest.failf "rpc failed: %a" Rpc.pp_error e);
  (* Step until the write waits on its first disc read, then fail the node
     under it. *)
  let rec until_reading budget =
    if Store.cache_misses store = misses && budget > 0 then begin
      Cluster.run_for cluster (Sim_time.microseconds 100);
      until_reading (budget - 1)
    end
  in
  until_reading 1_000;
  check_bool "write waits on the disc" true
    (Store.cache_misses store > misses && !reply = None);
  Cluster.total_node_failure cluster ~node:1;
  Cluster.run cluster;
  check_bool "write rejected" true
    (!reply = Some (Dp_protocol.Dp_error Dp_protocol.Tx_rejected));
  (cluster, spec)

let test_update_across_total_failure_reverted () =
  let cluster, _ =
    write_across_total_failure (fun op ->
        Dp_protocol.Dp_update
          {
            op;
            file = "ACCOUNT";
            key = Tandem_db.Key.of_int 3;
            payload = Tandem_db.Record.encode [ ("balance", "7777") ];
          })
  in
  Alcotest.(check (option int)) "pre-failure balance" (Some 1_000)
    (Workload.account_balance cluster ~account:3)

let test_append_across_total_failure_reverted () =
  let cluster, spec =
    write_across_total_failure (fun op ->
        Dp_protocol.Dp_append
          {
            op;
            file = Workload.history_file;
            payload = Tandem_db.Record.encode [ ("delta", "7777") ];
          })
  in
  check_int "only the seeded history entry" 1
    (Workload.history_count cluster spec)

(* ------------------------------------------------------------------ *)
(* Abandoned transactions are auto-aborted at the time limit *)

let test_abandoned_transaction_auto_aborts () =
  let cluster, _, _ = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let transid_ref = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      transid_ref := Some transid;
      match
        File_client.update (Cluster.files cluster) ~self:process ~transid
          ~file:"ACCOUNT" (Tandem_db.Key.of_int 5)
          (Tandem_db.Record.encode [ ("balance", "31337") ])
      with
      | Ok () -> () (* the requester "dies" here: never ends the transaction *)
      | Error e -> Alcotest.failf "update failed: %a" File_client.pp_error e);
  Cluster.run cluster;
  let transid = Option.get !transid_ref in
  (* The time limit (60 s) fires, the TMP backs the transaction out. *)
  (match Tmf.disposition tmf ~node:1 transid with
  | Some Tandem_audit.Monitor_trail.Aborted -> ()
  | other ->
      Alcotest.failf "expected auto-abort, got %s"
        (match other with
        | Some Tandem_audit.Monitor_trail.Committed -> "committed"
        | Some Tandem_audit.Monitor_trail.Aborted -> "aborted"
        | None -> "nothing"));
  Alcotest.(check (option int)) "update backed out" (Some 1_000)
    (Workload.account_balance cluster ~account:5);
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  check_int "locks released" 0
    (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp))

(* ------------------------------------------------------------------ *)
(* Stale-lock reaping: a lost release notification self-heals *)

let test_stale_lock_reaped_by_waiter () =
  let cluster, tcp, _ = single_node_cluster () in
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  (* Plant a ghost: a lock owned by a transid TMF has never heard of. *)
  check_bool "ghost grantable" true
    (Tandem_lock.Lock_table.try_acquire (Discprocess.lock_table dp)
       ~owner:"1.3.999"
       (Tandem_lock.Lock_table.Record_lock
          { file = "ACCOUNT"; key = Tandem_db.Key.of_int 3 }));
  Tcp.submit tcp ~terminal:0 (dc_input ~account:3 ~delta:50 ());
  Cluster.run cluster;
  check_int "transaction got through the ghost" 1 (Tcp.completed tcp);
  check_bool "ghost reaped" true
    (Metrics.read_counter (Cluster.metrics cluster) "lock.stale_reaped" >= 1)

(* ------------------------------------------------------------------ *)
(* The unilateral abort right before the phase-one vote: a participant cut
   off from its home node while the transaction is active aborts it at the
   transaction time limit and frees its locks, with the link still down. *)

let test_cut_off_participant_times_out () =
  let limit = Sim_time.seconds 5 in
  let cluster, tcp, _spec =
    two_node_cluster
      ~config:{ Hw_config.default with transaction_time_limit = limit }
      ()
  in
  let net = Cluster.net cluster and engine = Cluster.engine cluster in
  let dp2 = Cluster.discprocess cluster ~node:2 ~volume:"$DATA2" in
  let locks () =
    Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2)
  in
  (* Cut the link the moment the credit has locked its row at node 2: the
     transaction is active there and has not been asked to vote. *)
  let cut_at = ref None in
  let rec cut_once_locked () =
    if locks () > 0 then begin
      cut_at := Some (Engine.now engine);
      Net.fail_link net 1 2
    end
    else
      ignore
        (Engine.schedule_after engine (Sim_time.milliseconds 1) cut_once_locked)
  in
  cut_once_locked ();
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
  Cluster.run ~until:limit cluster;
  check_bool "cut while active" true (Option.is_some !cut_at);
  check_bool "participant holds its locks until the limit" true (locks () > 0);
  check_int "participant never voted" 0
    (List.length
       (Tmf.Tmp.in_doubt_transactions (Tmf.tmp (Cluster.tmf cluster) 2)));
  Cluster.run ~until:(Sim_time.add limit (Sim_time.seconds 1)) cluster;
  check_bool "link still down" false (Net.reachable net 2 1);
  check_int "participant locks released before heal" 0 (locks ());
  check_bool "time-limit abort counted" true
    (Metrics.read_counter (Cluster.metrics cluster) "tmf.auto_aborts" >= 1)

(* ------------------------------------------------------------------ *)
(* Relative files through the full transactional stack *)

let test_relative_file_transactional () =
  let cluster = Cluster.create ~seed:39 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  ignore (Cluster.add_volume cluster ~node:1 ~name:"$REL" ~primary_cpu:2 ~backup_cpu:3 ());
  Cluster.add_file cluster
    (Tandem_db.Schema.define ~name:"SLOTS" ~organization:Tandem_db.Schema.Relative
       ~degree:8
       ~partitions:[ { Tandem_db.Schema.low_key = Tandem_db.Key.min_key; node = 1; volume = "$REL" } ]
       ());
  let tmf = Cluster.tmf cluster in
  let files = Cluster.files cluster in
  let slot n = Tandem_db.Key.of_int n in
  (* Committed transaction: insert two slots, update one, delete another. *)
  Cluster.run_client cluster ~node:1 ~cpu:0 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:0 in
      ignore (File_client.insert files ~self:process ~transid ~file:"SLOTS" (slot 3) "three");
      ignore (File_client.insert files ~self:process ~transid ~file:"SLOTS" (slot 8) "eight");
      ignore (File_client.update files ~self:process ~transid ~file:"SLOTS" (slot 3) "THREE");
      ignore (Tmf.end_transaction tmf ~self:process transid));
  Cluster.run cluster;
  (* Aborted transaction: its slot mutations vanish. *)
  Cluster.run_client cluster ~node:1 ~cpu:0 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:0 in
      ignore (File_client.delete files ~self:process ~transid ~file:"SLOTS" (slot 8));
      ignore (File_client.insert files ~self:process ~transid ~file:"SLOTS" (slot 4) "four");
      ignore (Tmf.abort_transaction tmf ~self:process ~reason:"test" transid));
  Cluster.run cluster;
  let read_slot n = ref None |> fun r ->
    Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
        r := Some (File_client.read files ~self:process ~file:"SLOTS" (slot n)));
    Cluster.run cluster;
    match !r with Some (Ok v) -> v | _ -> Alcotest.fail "read failed"
  in
  Alcotest.(check (option string)) "committed update" (Some "THREE") (read_slot 3);
  Alcotest.(check (option string)) "aborted delete restored" (Some "eight") (read_slot 8);
  Alcotest.(check (option string)) "aborted insert gone" None (read_slot 4)

(* ------------------------------------------------------------------ *)
(* Multiple audit trails: volumes configured onto different trails; one
   transaction touching both forces both at phase one, and backout reads
   each volume's images from its own trail. *)

let test_two_audit_trails () =
  let cluster = Cluster.create ~seed:47 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  Cluster.add_audit_trail cluster ~node:1 ~name:"$AUDIT2";
  ignore (Cluster.add_volume cluster ~node:1 ~name:"$DA" ~primary_cpu:2 ~backup_cpu:3 ());
  ignore
    (Cluster.add_volume cluster ~node:1 ~name:"$DB" ~primary_cpu:3 ~backup_cpu:2
       ~trail:"$AUDIT2" ());
  let spec =
    {
      Workload.accounts = 100;
      tellers = 10;
      branches = 5;
      initial_balance = 1_000;
      (* Accounts split across the two volumes (and the two trails). *)
      account_partitions = [ (1, "$DA"); (1, "$DB") ];
      system_home = (1, "$DA");
    }
  in
  Workload.install_bank cluster spec;
  ignore (Workload.add_transfer_servers cluster ~node:1 ~count:2 ());
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:Workload.transfer_program ()
  in
  (* Account 10 on $DA (trail $AUDIT), 80 on $DB (trail $AUDIT2). *)
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
  Cluster.run cluster;
  check_int "committed" 1 (Tcp.completed tcp);
  let state = Tmf.node_state (Cluster.tmf cluster) 1 in
  let trail name = Hashtbl.find state.Tmf.Tmf_state.trails name in
  check_bool "first trail carries the debit image" true
    (Tandem_audit.Audit_trail.next_sequence (trail "$AUDIT") >= 1);
  check_bool "second trail carries the credit image" true
    (Tandem_audit.Audit_trail.next_sequence (trail "$AUDIT2") >= 1);
  check_bool "both trails forced" true
    (Tandem_audit.Audit_trail.forced_up_to (trail "$AUDIT") >= 0
    && Tandem_audit.Audit_trail.forced_up_to (trail "$AUDIT2") >= 0);
  (* An aborted transfer backs out correctly across both trails. *)
  Tcp.submit tcp ~terminal:1
    (Workload.transfer_input_between ~from_account:10 ~to_account:999 ~amount:50);
  Cluster.run cluster;
  Alcotest.(check (option int)) "abort across trails left no debit" (Some 900)
    (Workload.account_balance cluster ~account:10)

(* ------------------------------------------------------------------ *)
(* Security controls by network node *)

let test_node_security_control () =
  let cluster = Cluster.create ~seed:33 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  ignore (Cluster.add_node cluster ~id:2 ~cpus:4);
  Cluster.link cluster 1 2;
  ignore (Cluster.add_volume cluster ~node:1 ~name:"$SEC" ~primary_cpu:2 ~backup_cpu:3 ());
  Cluster.add_file cluster
    (Tandem_db.Schema.define ~name:"PAYROLL" ~organization:Tandem_db.Schema.Key_sequenced
       ~restrict_to_nodes:[ 1 ]
       ~partitions:[ { Tandem_db.Schema.low_key = Tandem_db.Key.min_key; node = 1; volume = "$SEC" } ]
       ());
  Cluster.load_file cluster ~file:"PAYROLL"
    [ (Tandem_db.Key.of_int 1, Tandem_db.Record.encode [ ("salary", "9000") ]) ];
  let local = ref None and remote = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:0 (fun process ->
      local :=
        Some (File_client.read (Cluster.files cluster) ~self:process
                ~file:"PAYROLL" (Tandem_db.Key.of_int 1)));
  Cluster.run_client cluster ~node:2 ~cpu:0 (fun process ->
      remote :=
        Some (File_client.read (Cluster.files cluster) ~self:process
                ~file:"PAYROLL" (Tandem_db.Key.of_int 1)));
  Cluster.run cluster;
  (match !local with
  | Some (Ok (Some _)) -> ()
  | _ -> Alcotest.fail "authorized node must read");
  match !remote with
  | Some (Error (File_client.Data_error Dp_protocol.Security_violation)) -> ()
  | _ -> Alcotest.fail "unauthorized node must be rejected"

(* ------------------------------------------------------------------ *)
(* The RESTART-TRANSACTION verb, called explicitly by a program *)

let test_explicit_restart_verb () =
  let attempts = ref 0 in
  let program =
    Screen_program.make ~name:"retry-once" (fun verbs input ->
        verbs.Screen_program.begin_transaction ();
        let reply = verbs.Screen_program.send ~server_class:"BANK" input in
        incr attempts;
        if !attempts = 1 then
          verbs.Screen_program.restart_transaction ~reason:"first try always restarts";
        verbs.Screen_program.end_transaction ();
        reply)
  in
  let cluster, tcp, _ = single_node_cluster ~program () in
  Tcp.submit tcp ~terminal:0 (dc_input ~account:3 ~delta:50 ());
  Cluster.run cluster;
  check_int "committed on second attempt" 1 (Tcp.completed tcp);
  check_int "one restart" 1 (Tcp.restarts tcp);
  (* The first attempt's work was backed out: the delta applies once. *)
  Alcotest.(check (option int)) "applied exactly once" (Some 1_050)
    (Workload.account_balance cluster ~account:3)

(* ------------------------------------------------------------------ *)
(* The boot-time knobs reach the TCP and the DISCPROCESS *)

(* A program that always restarts runs once plus [restart_limit] times,
   then its input is reported failed. The TCP's restart counter counts every
   RESTART-TRANSACTION raised, the final one included. *)
let test_restart_limit_bounds_reexecution () =
  List.iter
    (fun restart_limit ->
      let executions = ref 0 in
      let program =
        Screen_program.make ~name:"always-restarts" (fun verbs _ ->
            verbs.Screen_program.begin_transaction ();
            incr executions;
            verbs.Screen_program.restart_transaction ~reason:"always";
            "unreachable")
      in
      let config = { Hw_config.default with restart_limit } in
      let cluster, tcp, _ = single_node_cluster ~config ~program () in
      Tcp.submit tcp ~terminal:0 (dc_input ());
      Cluster.run cluster;
      let label what = Printf.sprintf "%s at restart_limit=%d" what restart_limit in
      check_int (label "re-executions") restart_limit (!executions - 1);
      check_int (label "restarts raised") (restart_limit + 1) (Tcp.restarts tcp);
      check_int (label "failures") 1 (Tcp.failures tcp);
      check_int (label "completions") 0 (Tcp.completed tcp))
    [ 0; 2 ]

(* A record lock held by a live transaction makes a second requester give
   up after the configured interval (plus message costs), not the 2 s
   default. *)
let test_lock_timeout_bounds_wait () =
  let lock_timeout = Sim_time.milliseconds 300 in
  let config = { Hw_config.default with lock_timeout } in
  let cluster, _, _ = single_node_cluster ~config () in
  let tmf = Cluster.tmf cluster in
  let files = Cluster.files cluster in
  let key = Tandem_db.Key.of_int 3 in
  let balance = Tandem_db.Record.encode [ ("balance", "1") ] in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      (match File_client.update files ~self:process ~transid ~file:"ACCOUNT" key balance with
      | Ok () -> ()
      | Error e -> Alcotest.failf "holder update failed: %a" File_client.pp_error e);
      Fiber.sleep (Cluster.engine cluster) (Sim_time.seconds 5);
      ignore (Tmf.end_transaction tmf ~self:process transid));
  let waited = ref None in
  Cluster.run_client cluster ~node:1 ~cpu:0 (fun process ->
      Fiber.sleep (Cluster.engine cluster) (Sim_time.milliseconds 100);
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:0 in
      let started = Engine.now (Cluster.engine cluster) in
      (match File_client.update files ~self:process ~transid ~file:"ACCOUNT" key balance with
      | Error (File_client.Data_error Dp_protocol.Lock_timeout) -> ()
      | Ok () -> Alcotest.fail "waiter got a lock that was held"
      | Error e -> Alcotest.failf "expected a lock timeout: %a" File_client.pp_error e);
      waited := Some (Engine.now (Cluster.engine cluster) - started);
      ignore (Tmf.abort_transaction tmf ~self:process transid ~reason:"timed out"));
  Cluster.run cluster;
  let waited = Option.get !waited in
  check_bool "waited at least the lock timeout" true (waited >= lock_timeout);
  check_bool "gave up well before the 2 s default" true
    (waited < Sim_time.seconds 1)

(* ------------------------------------------------------------------ *)
(* Fuzzy archives: "these copies can be created during normal transaction
   processing" — an archive taken mid-transaction must recover correctly
   whether that transaction later aborts or commits. *)

let fuzzy_archive_scenario ~open_tx_commits =
  let cluster, tcp, _spec = single_node_cluster () in
  let tmf = Cluster.tmf cluster in
  let archive = ref None in
  let engine = Cluster.engine cluster in
  Cluster.run_client cluster ~node:1 ~cpu:1 (fun process ->
      let transid = Tmf.begin_transaction tmf ~node:1 ~cpu:1 in
      (match
         File_client.update (Cluster.files cluster) ~self:process ~transid
           ~file:"ACCOUNT" (Tandem_db.Key.of_int 5)
           (Tandem_db.Record.encode [ ("balance", "5555") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "update failed: %a" File_client.pp_error e);
      (* Flush this transaction's audit so its image sits in the trail
         BEFORE the archive point (the pre-archive loser-candidate path). *)
      let state = Tmf.node_state tmf 1 in
      (match Tbl.String.find_opt state.Tmf.Tmf_state.participants "$DATA1" with
      | Some participant ->
          ignore (participant.Tmf.Participant.flush_audit ~self:process transid);
          Tandem_audit.Audit_trail.force
            (Hashtbl.find state.Tmf.Tmf_state.trails "$AUDIT")
      | None -> ());
      (* Stay open across the archive instant. *)
      Fiber.sleep engine (Sim_time.seconds 2);
      if open_tx_commits then
        ignore (Tmf.end_transaction tmf ~self:process transid)
      else
        ignore (Tmf.abort_transaction tmf ~self:process ~reason:"fuzzy test" transid));
  ignore
    (Engine.schedule_at engine (Sim_time.seconds 1) (fun () ->
         archive := Some (Cluster.take_archive cluster ~node:1)));
  Cluster.run cluster;
  (* Post-archive committed work on another account. *)
  Tcp.submit tcp ~terminal:0 (dc_input ~account:6 ~delta:100 ());
  Cluster.run cluster;
  check_int "background commit done" 1 (Tcp.completed tcp);
  Cluster.total_node_failure cluster ~node:1;
  let stats =
    Cluster.rollforward_node cluster ~node:1 (Option.get !archive)
  in
  (cluster, stats)

let test_fuzzy_archive_open_tx_aborts () =
  let cluster, stats = fuzzy_archive_scenario ~open_tx_commits:false in
  check_bool "loser images undone" true (stats.Tmf.Rollforward.images_undone >= 1);
  Alcotest.(check (option int)) "open-at-archive loser backed out" (Some 1_000)
    (Workload.account_balance cluster ~account:5);
  Alcotest.(check (option int)) "post-archive winner redone" (Some 1_100)
    (Workload.account_balance cluster ~account:6)

let test_fuzzy_archive_open_tx_commits () =
  let cluster, stats = fuzzy_archive_scenario ~open_tx_commits:true in
  check_bool "winner redone" true (stats.Tmf.Rollforward.transactions_redone >= 2);
  Alcotest.(check (option int)) "open-at-archive winner preserved" (Some 5_555)
    (Option.bind (Workload.account_balance cluster ~account:5) Option.some);
  Alcotest.(check (option int)) "post-archive winner redone" (Some 1_100)
    (Workload.account_balance cluster ~account:6)

(* The transmission spanning tree: with the TCP on node 1, the server on
   node 2 and data on nodes 2 and 3, the transid travels 1 -> 2 -> 3; node
   1's child is 2 and node 2's child is 3 (the paper's own example: "The
   TMP on node 1 remembers that it transmitted the transaction to node 2,
   but does not know that node 2 transmitted it to node 3."). *)

let test_spanning_tree_shape () =
  let cluster = Cluster.create ~seed:44 () in
  List.iter (fun id -> ignore (Cluster.add_node cluster ~id ~cpus:4)) [ 1; 2; 3 ];
  Cluster.link cluster 1 2;
  Cluster.link cluster 2 3;
  ignore (Cluster.add_volume cluster ~node:2 ~name:"$D2" ~primary_cpu:2 ~backup_cpu:3 ());
  ignore (Cluster.add_volume cluster ~node:3 ~name:"$D3" ~primary_cpu:2 ~backup_cpu:3 ());
  let spec =
    {
      Workload.accounts = 100;
      tellers = 10;
      branches = 5;
      initial_balance = 1_000;
      account_partitions = [ (2, "$D2"); (3, "$D3") ];
      system_home = (2, "$D2");
    }
  in
  Workload.install_bank cluster spec;
  ignore (Workload.add_transfer_servers cluster ~node:2 ~count:2 ());
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:1
      ~program:Workload.transfer_program ()
  in
  (* From an account on node 2 to one on node 3. *)
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:50);
  let tree = ref None in
  ignore
    (Engine.schedule_at (Cluster.engine cluster) (Sim_time.milliseconds 150)
       (fun () ->
         let children node =
           let state = Tmf.node_state (Cluster.tmf cluster) node in
           Tbl.String.fold
             (fun _ info acc -> info.Tmf.Tmf_state.children @ acc)
             state.Tmf.Tmf_state.registry []
           |> List.sort_uniq Int.compare
         in
         tree := Some (children 1, children 2, children 3)));
  Cluster.run cluster;
  check_int "committed" 1 (Tcp.completed tcp);
  match !tree with
  | Some (c1, c2, c3) ->
      Alcotest.(check (list int)) "node 1 transmitted to node 2 only" [ 2 ] c1;
      Alcotest.(check (list int)) "node 2 transmitted to node 3" [ 3 ] c2;
      Alcotest.(check (list int)) "node 3 is a leaf" [] c3
  | None -> Alcotest.fail "probe never fired"

(* ------------------------------------------------------------------ *)
(* ROLLFORWARD negotiation: a participant that failed totally between its
   phase-one vote and phase two cannot resolve the transaction locally and
   must ask the home node — impossible while partitioned (in doubt),
   resolved after healing. *)

let test_rollforward_negotiates_in_doubt () =
  (* Find a cut instant that leaves node 2 voted-yes with locks held. *)
  let latch cut_ms =
    let cluster, tcp, spec = two_node_cluster () in
    let archive = Cluster.take_archive cluster ~node:2 in
    let engine = Cluster.engine cluster in
    ignore
      (Engine.schedule_after engine (Sim_time.milliseconds cut_ms) (fun () ->
           Net.fail_link (Cluster.net cluster) 1 2));
    Tcp.submit tcp ~terminal:0
      (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
    Cluster.run ~until:(Sim_time.seconds 30) cluster;
    let dp2 = Cluster.discprocess cluster ~node:2 ~volume:"$DATA2" in
    if Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2) > 0
    then Some (cluster, archive, spec)
    else None
  in
  let rec search = function
    | [] -> Alcotest.fail "no cut instant latched a vote at node 2"
    | cut :: rest -> (
        match latch cut with Some hit -> hit | None -> search rest)
  in
  let cluster, archive, _spec =
    search [ 350; 330; 310; 370; 290; 390; 270; 410 ]
  in
  (* Node 2 dies totally while in doubt; recovery runs behind the
     partition: the transaction stays unresolved and is NOT applied. *)
  Cluster.total_node_failure cluster ~node:2;
  let stats1 = Cluster.rollforward_node cluster ~node:2 archive in
  check_bool "in doubt while home unreachable" true
    (stats1.Tmf.Rollforward.in_doubt <> []);
  (* Heal and negotiate again: the home node's disposition resolves it. *)
  Net.restore_link (Cluster.net cluster) 1 2;
  let stats2 = Cluster.rollforward_node cluster ~node:2 archive in
  check_bool "resolved after healing" true (stats2.Tmf.Rollforward.in_doubt = []);
  (* Whatever the home decided, node 2's data must agree with it. *)
  let home_disposition =
    Tandem_audit.Monitor_trail.entries
      (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.monitor
  in
  let committed =
    List.exists (fun (_, d) -> d = Tandem_audit.Monitor_trail.Committed) home_disposition
  in
  Alcotest.(check (option int)) "participant data agrees with home"
    (Some (if committed then 1_100 else 1_000))
    (Workload.account_balance cluster ~account:80)

(* ------------------------------------------------------------------ *)
(* Property: random faults never break atomicity or conservation *)

let fault_gen =
  QCheck.Gen.(
    list_size (0 -- 3)
      (pair (int_range 0 3) (int_range 10 4_000)))
(* (cpu to fail, when in ms); restoration follows 2s later *)

let prop_random_faults_conserve_funds =
  QCheck.Test.make ~name:"random cpu faults: funds conserved, structures intact"
    ~count:15
    (QCheck.make
       ~print:(fun (seed, faults, transfers) ->
         Printf.sprintf "seed=%d faults=[%s] transfers=[%s]" seed
           (String.concat ";"
              (List.map (fun (c, t) -> Printf.sprintf "(%d,%d)" c t) faults))
           (String.concat ";"
              (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) transfers)))
       QCheck.Gen.(triple int fault_gen (list_size (5 -- 25) (pair (int_bound 49) (int_bound 49)))))
    (fun (seed, faults, transfers) ->
      let cluster, spec =
        Workload.build_bank ~seed:(abs seed) ~accounts:50
          ~servers:[ `Transfer 2 ] ()
      in
      let tcp =
        Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~primary_cpu:0
          ~backup_cpu:1 ~terminals:4 ~program:Workload.transfer_program ()
      in
      List.iteri
        (fun i (from_account, to_account) ->
          if from_account <> to_account then
            Tcp.submit tcp ~terminal:(i mod 4)
              (Workload.transfer_input_between ~from_account ~to_account
                 ~amount:7))
        transfers;
      List.iter
        (fun (cpu, at_ms) ->
          ignore
            (Engine.schedule_at (Cluster.engine cluster)
               (Sim_time.milliseconds at_ms) (fun () ->
                 (* Single-module failures only: a second failure while one
                    is outstanding can kill both members of a pair inside
                    the detection window — the multiple-module case the
                    architecture explicitly does not mask. *)
                 let node = Net.node (Cluster.net cluster) 1 in
                 if List.length (Node.up_cpus node) = 4 then begin
                   Cluster.fail_cpu cluster ~node:1 cpu;
                   ignore
                     (Engine.schedule_after (Cluster.engine cluster)
                        (Sim_time.seconds 2) (fun () ->
                          Cluster.restore_cpu cluster ~node:1 cpu))
                 end)))
        faults;
      Cluster.run ~until:(Sim_time.minutes 5) cluster;
      let conserved = Workload.total_balance cluster spec = 50 * 1_000 in
      let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
      let intact =
        match Discprocess.file dp "ACCOUNT" with
        | Some file -> Tandem_db.File.check_invariants file = Ok ()
        | None -> false
      in
      if not conserved then
        QCheck.Test.fail_reportf "funds drifted to %d"
          (Workload.total_balance cluster spec);
      if not intact then QCheck.Test.fail_report "account file corrupt";
      true)

(* Distributed variant: random partition windows across a two-node transfer
   stream — atomicity and conservation must hold; after healing, no locks
   may remain anywhere. *)

let prop_random_partitions_conserve_funds =
  QCheck.Test.make
    ~name:"random partitions: distributed atomicity and conservation" ~count:10
    (QCheck.make
       ~print:(fun (cuts, transfers) ->
         Printf.sprintf "cuts=[%s] transfers=%d"
           (String.concat ";" (List.map string_of_int cuts))
           (List.length transfers))
       QCheck.Gen.(
         pair
           (list_size (0 -- 2) (int_range 20 3_000))
           (list_size (4 -- 12) (pair (int_bound 49) (int_range 50 99)))))
    (fun (cuts, transfers) ->
      let cluster, spec =
        Workload.build_bank ~seed:55 ~nodes:2 ~accounts:100
          ~servers:[ `Transfer 2 ] ()
      in
      let tcp =
        Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~primary_cpu:0
          ~backup_cpu:1 ~terminals:4 ~program:Workload.transfer_program ()
      in
      List.iteri
        (fun i (from_account, to_account) ->
          Tcp.submit tcp ~terminal:(i mod 4)
            (Workload.transfer_input_between ~from_account ~to_account ~amount:3))
        transfers;
      List.iter
        (fun cut_ms ->
          ignore
            (Engine.schedule_at (Cluster.engine cluster)
               (Sim_time.milliseconds cut_ms) (fun () ->
                 Net.fail_link (Cluster.net cluster) 1 2;
                 ignore
                   (Engine.schedule_after (Cluster.engine cluster)
                      (Sim_time.seconds 8) (fun () ->
                        Net.restore_link (Cluster.net cluster) 1 2)))))
        cuts;
      Cluster.run ~until:(Sim_time.minutes 6) cluster;
      if Workload.total_balance cluster spec <> 100 * 1_000 then
        QCheck.Test.fail_reportf "funds drifted to %d"
          (Workload.total_balance cluster spec);
      List.iter
        (fun (node, volume) ->
          let dp = Cluster.discprocess cluster ~node ~volume in
          let held =
            Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp)
          in
          if held <> 0 then
            QCheck.Test.fail_reportf "%d lock(s) stuck at node %d after heal"
              held node)
        spec.Workload.account_partitions;
      true)

(* ------------------------------------------------------------------ *)
(* Bulk loading: linear cost, crash-safe image, charging restored *)

let bulk_rows = 65_536

let bulk_partitions = 16

(* [bulk_partitions] volumes share the rows evenly; one more volume holds a
   partition whose low key lies above every row, so no row reaches it. *)
let bulk_cluster () =
  let cluster = Cluster.create ~seed:5 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  let volume i = Printf.sprintf "$BULK%d" i in
  for i = 0 to bulk_partitions do
    ignore (Cluster.add_volume cluster ~node:1 ~name:(volume i) ())
  done;
  let low_key i =
    if i = 0 then Key.min_key else Key.of_int (i * bulk_rows / bulk_partitions)
  in
  Cluster.add_file cluster
    (Schema.define ~name:"BULK" ~organization:Schema.Key_sequenced ~degree:8
       ~partitions:
         (List.init (bulk_partitions + 1) (fun i ->
              { Schema.low_key = low_key i; node = 1; volume = volume i }))
       ());
  cluster

let bulk_targets cluster =
  let def = Option.get (Schema.find (Cluster.dictionary cluster) "BULK") in
  List.map
    (fun p ->
      let dp = Cluster.discprocess cluster ~node:p.Schema.node ~volume:p.Schema.volume in
      (Discprocess.store dp, Option.get (Discprocess.file dp "BULK")))
    def.Schema.partitions

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_load_file_is_linear () =
  let payload = Record.encode [ ("balance", "1000") ] in
  let rows = List.init bulk_rows (fun i -> (Key.of_int i, payload)) in
  (* Reference: the same rows inserted one at a time with charging off,
     then one disc image per store. The ascending loader builds the same
     blocks without re-reading the path or copying a leaf per row, so it
     must stay well under a quarter of that. *)
  let twin = bulk_cluster () in
  let def = Option.get (Schema.find (Cluster.dictionary twin) "BULK") in
  let targets_per_row = Array.of_list (bulk_targets twin) in
  let reference =
    minor_words_of (fun () ->
        Array.iter
          (fun (store, _) -> Store.set_charging store false)
          targets_per_row;
        List.iter
          (fun (key, payload) ->
            let _, f = targets_per_row.(Schema.partition_index def key) in
            ignore (File.insert f key payload))
          rows;
        Array.iter
          (fun (store, _) ->
            Store.overwrite_disk_image store;
            Store.set_charging store true)
          targets_per_row)
  in
  let cluster = bulk_cluster () in
  let targets = bulk_targets cluster in
  let untouched, _ = List.nth targets bulk_partitions in
  let untouched_dirty = Store.dirty_count untouched in
  check_bool "the unreached partition starts with a dirty root" true
    (untouched_dirty > 0);
  let loaded =
    minor_words_of (fun () -> Cluster.load_file cluster ~file:"BULK" rows)
  in
  if loaded > 0.25 *. reference then
    Alcotest.failf "load_file allocated %.0f words, %.2fx the %.0f-word reference"
      loaded (loaded /. reference) reference;
  check_int "the unreached partition keeps its cache" untouched_dirty
    (Store.dirty_count untouched);
  List.iteri
    (fun i (store, f) ->
      if i < bulk_partitions then begin
        check_bool
          (Printf.sprintf "partition %d holds the per-row blocks" i)
          true
          (Store.snapshot store = Store.snapshot (fst targets_per_row.(i)));
        Store.crash store;
        (* Count from the flushed image without charging simulated reads. *)
        Store.set_charging store false;
        let survivors = ref 0 in
        File.iter f (fun _ _ -> incr survivors);
        Store.set_charging store true;
        check_int
          (Printf.sprintf "partition %d survives a crash whole" i)
          (bulk_rows / bulk_partitions) !survivors
      end)
    targets

let test_failed_load_restores_charging () =
  let cluster = Cluster.create ~seed:6 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  ignore (Cluster.add_volume cluster ~node:1 ~name:"$DATA1" ~primary_cpu:2 ~backup_cpu:3 ());
  let define ?(organization = Schema.Key_sequenced) ?indices name =
    Cluster.add_file cluster
      (Schema.define ~name ~organization ?indices ~degree:2
         ~partitions:[ { Schema.low_key = Key.min_key; node = 1; volume = "$DATA1" } ]
         ())
  in
  define "GOOD";
  define "BAD";
  define "LATE";
  define "IDX" ~indices:[ { Schema.index_name = "IDX-BY-N"; on_field = "n" } ];
  define "ENTRY" ~organization:Schema.Entry_sequenced;
  let row i = (Key.of_int i, Record.encode [ ("n", string_of_int i) ]) in
  Cluster.load_file cluster ~file:"GOOD" (List.init 100 row);
  Cluster.load_file cluster ~file:"LATE" [ row 5 ];
  (* GOOD's blocks left the cache when its load finished, and each check
     reads a key from a leaf (at most three keys) no earlier check read, so
     every read is cold and must pay a physical read on the shared volume. *)
  let volume = Cluster.volume cluster ~node:1 ~volume:"$DATA1" in
  let check_charged label key =
    let reads_before = Tandem_disk.Volume.reads volume in
    let result = ref None in
    Cluster.run_client cluster ~node:1 ~cpu:0 (fun process ->
        result :=
          Some (File_client.read (Cluster.files cluster) ~self:process ~file:"GOOD"
                  (Key.of_int key)));
    Cluster.run cluster;
    (match !result with
    | Some (Ok (Some _)) -> ()
    | _ -> Alcotest.failf "%s: the loaded row must be readable" label);
    check_bool (label ^ ": the cold read is charged") true
      (Tandem_disk.Volume.reads volume > reads_before)
  in
  let refused label ~file rows message ~then_read =
    Alcotest.check_raises label (Invalid_argument message) (fun () ->
        Cluster.load_file cluster ~file rows);
    check_charged label then_read
  in
  let out_of_order = "File.load BAD: keys must strictly ascend" in
  refused "duplicate key" ~file:"BAD" [ row 1; row 2; row 2 ] out_of_order
    ~then_read:10;
  refused "out-of-order key" ~file:"BAD" [ row 1; row 2; row 1 ] out_of_order
    ~then_read:30;
  refused "indexed file" ~file:"IDX" [ row 1 ]
    "File.load IDX: secondary indices need per-row inserts" ~then_read:50;
  refused "entry-sequenced file" ~file:"ENTRY" [ row 1 ]
    "File.load ENTRY: not a key-sequenced file" ~then_read:70;
  (* Refused by the B-tree, after charging went off. *)
  refused "key below the loaded ones" ~file:"LATE" [ row 3 ]
    "Btree.bulk_load LATE: key \"000000000003\" does not ascend" ~then_read:90;
  let count file =
    File.count
      (Option.get
         (Discprocess.file (Cluster.discprocess cluster ~node:1 ~volume:"$DATA1") file))
  in
  check_int "a refused load loads no row" 0 (count "BAD");
  check_int "the loaded file keeps its row" 1 (count "LATE")

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_same_seed_same_outcome () =
  let run () =
    let cluster, tcp, spec = single_node_cluster () in
    let rng = Rng.create ~seed:1234 in
    for i = 0 to 19 do
      Tcp.submit tcp ~terminal:(i mod 4) (Workload.debit_credit_input rng spec ())
    done;
    Cluster.run cluster;
    ( Tcp.completed tcp,
      Workload.total_balance cluster spec,
      Engine.now (Cluster.engine cluster),
      Engine.events_executed (Cluster.engine cluster) )
  in
  let a = run () and b = run () in
  check_bool "bit-identical runs" true (a = b)

(* ------------------------------------------------------------------ *)
(* The standard bank's layout, as the public API shows it *)

let test_build_bank_layout () =
  let pairs = Alcotest.(list (pair int string)) in
  let cluster, spec =
    Workload.build_bank ~nodes:3 ~accounts:150
      ~servers:[ `Bank 1; `Transfer 1; `Inquiry 1 ] ()
  in
  let one_per_node = [ (1, "$DATA1"); (2, "$DATA2"); (3, "$DATA3") ] in
  Alcotest.check pairs "one volume per node" one_per_node
    (Cluster.data_volumes cluster);
  Alcotest.check pairs "account partitions" one_per_node
    spec.Workload.account_partitions;
  Alcotest.(check (pair int string)) "system home" (1, "$DATA1")
    spec.Workload.system_home;
  List.iter
    (fun name ->
      match Cluster.server_class cluster name with
      | Some server -> check_int (name ^ " on node 1") 1 (Server.node_id server)
      | None -> Alcotest.failf "no %s class" name)
    [ "BANK"; "TRANSFER"; "INQUIRY" ];
  List.iter
    (fun (a, b) ->
      Alcotest.(check (option int))
        (Printf.sprintf "%d-%d one hop" a b)
        (Some 1)
        (Option.map fst (Net.route (Cluster.net cluster) a b)))
    [ (1, 2); (1, 3); (2, 3) ];
  check_int "funds loaded" (150 * 1_000) (Workload.total_balance cluster spec);
  let cluster, spec =
    Workload.build_bank ~volumes:[ 1; 1 ] ~accounts:100 ~servers:[] ()
  in
  let both_on_node_1 = [ (1, "$DATA1"); (1, "$DATA2") ] in
  Alcotest.check pairs "two volumes on node 1" both_on_node_1
    (Cluster.data_volumes cluster);
  Alcotest.check pairs "partitions in volume order" both_on_node_1
    spec.Workload.account_partitions

let () =
  Alcotest.run "tandem_encompass"
    [
      ( "single_node",
        [
          Alcotest.test_case "commit" `Quick test_single_node_commit;
          Alcotest.test_case "sequential stream" `Quick test_several_sequential_transactions;
          Alcotest.test_case "abort backs out" `Quick test_abort_program_backs_out;
          Alcotest.test_case "structure after mixed run" `Quick test_file_invariants_after_mixed_run;
          Alcotest.test_case "deadlock restart" `Quick test_deadlock_restart_resolves;
        ] );
      ( "failures",
        [
          Alcotest.test_case "server cpu failure" `Quick test_server_cpu_failure_restarts_transaction;
          Alcotest.test_case "discprocess takeover" `Quick test_discprocess_takeover_is_transparent;
          Alcotest.test_case "tcp takeover" `Quick test_tcp_takeover_reexecutes_input;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "two-node commit" `Quick test_distributed_commit;
          Alcotest.test_case "partition aborts" `Quick test_partition_before_commit_aborts;
          Alcotest.test_case "remote begin bookkeeping" `Quick test_remote_begin_registers_participant;
          Alcotest.test_case "spanning tree shape" `Quick test_spanning_tree_shape;
        ] );
      ( "order_entry",
        [
          Alcotest.test_case "index lookup" `Quick test_order_entry_index_lookup;
          Alcotest.test_case "abort unwinds index" `Quick test_order_abort_unwinds_index;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "file lock excludes others" `Quick
            test_file_lock_excludes_other_transactions;
          Alcotest.test_case "reply slot replays" `Quick
            test_reply_slot_replays_duplicate_op;
          Alcotest.test_case "late completion keeps newer reply" `Quick
            test_late_completion_keeps_newer_reply;
          Alcotest.test_case "stale duplicate not executed" `Quick
            test_stale_duplicate_not_executed;
          Alcotest.test_case "interleaved requesters replay" `Quick
            test_interleaved_requesters_replay;
          Alcotest.test_case "total failure resets reply slots" `Quick
            test_total_failure_resets_reply_slots;
          Alcotest.test_case "abandoned tx auto-aborts" `Quick
            test_abandoned_transaction_auto_aborts;
          Alcotest.test_case "stale lock reaped" `Quick test_stale_lock_reaped_by_waiter;
          Alcotest.test_case "cut-off participant times out" `Quick
            test_cut_off_participant_times_out;
          Alcotest.test_case "relative file transactional" `Quick
            test_relative_file_transactional;
          Alcotest.test_case "two audit trails" `Quick test_two_audit_trails;
          Alcotest.test_case "node security control" `Quick test_node_security_control;
          Alcotest.test_case "explicit RESTART-TRANSACTION" `Quick
            test_explicit_restart_verb;
          Alcotest.test_case "restart_limit bounds re-execution" `Quick
            test_restart_limit_bounds_reexecution;
          Alcotest.test_case "lock_timeout bounds the wait" `Quick
            test_lock_timeout_bounds_wait;
          Alcotest.test_case "update across total failure reverted" `Quick
            test_update_across_total_failure_reverted;
          Alcotest.test_case "append across total failure reverted" `Quick
            test_append_across_total_failure_reverted;
        ] );
      ( "rollforward",
        [
          Alcotest.test_case "recovers committed" `Quick test_rollforward_recovers_committed;
          Alcotest.test_case "discards uncommitted" `Quick test_rollforward_discards_uncommitted;
          Alcotest.test_case "negotiates in-doubt" `Quick
            test_rollforward_negotiates_in_doubt;
          Alcotest.test_case "fuzzy archive, open tx aborts" `Quick
            test_fuzzy_archive_open_tx_aborts;
          Alcotest.test_case "fuzzy archive, open tx commits" `Quick
            test_fuzzy_archive_open_tx_commits;
        ] );
      ( "bulk_load",
        [
          Alcotest.test_case "linear allocation, crash-safe image" `Quick
            test_load_file_is_linear;
          Alcotest.test_case "failed load restores charging" `Quick
            test_failed_load_restores_charging;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed same outcome" `Quick test_same_seed_same_outcome ] );
      ( "build_bank",
        [ Alcotest.test_case "layout" `Quick test_build_bank_layout ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_faults_conserve_funds; prop_random_partitions_conserve_funds ] );
    ]
