(* Commit-protocol equivalence and Paxos Commit recovery corners.

   The pluggable commit protocol changes where the verdict lives — a
   forced monitor record at the home under 2PC, an acceptor majority
   under Paxos Commit — but it must never change what the system decides
   when nothing fails. The equivalence test runs the same seeded
   inquiry/transfer schedule under 2PC and under Paxos Commit (one and
   three acceptors) and requires home-node dispositions, final balances
   and (marker-filtered) forced audit content to be identical.

   The recovery tests pin the corner Paxos Commit exists for: a home
   that dies between its commit point and phase two. A decided
   transaction must commit at the voted-yes participant through the
   surviving acceptor majority, with no operator and no home restart;
   an undecided one must be driven to abort by a recovery ballot, since
   a manifest that never reached a majority cannot have committed
   anywhere. *)

open Tandem_sim
open Tandem_os
open Tandem_audit
open Tandem_encompass
open Tandem_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let node_state cluster node = Tmf.node_state (Cluster.tmf cluster) node

let paxos_config count =
  { Hw_config.default with Hw_config.tmp_commit_protocol = `Paxos count }

(* Paxos Commit has every voted-yes participant replicate its vote to
   every acceptor, so each node must reach each other node directly: the
   standard bank's full mesh. *)
let three_node_cluster ~config ~with_tcp () =
  let cluster, spec =
    Workload.build_bank ~seed:11 ~config ~nodes:3 ~accounts:150
      ~servers:(if with_tcp then [ `Transfer 2; `Inquiry 2 ] else [])
      ()
  in
  let tcp =
    if with_tcp then
      Some
        (Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
           ~program:
             (Screen_program.transaction ~name:"commitproto-mix"
                (fun verbs input ->
                  let server_class =
                    match Tandem_db.Record.field input "class" with
                    | Some cls -> cls
                    | None -> "INQUIRY"
                  in
                  verbs.Screen_program.send ~server_class input))
           ())
    else None
  in
  (cluster, spec, tcp)

(* ------------------------------------------------------------------ *)
(* Failure-free equivalence: 2PC and Paxos Commit decide identically *)

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

(* Single-node, remote and cross-node shapes: the fast path, read-only
   children, and the general protocol all exercised under each verdict
   store. *)
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

(* Rendered without the sequence number: commit markers occupy sequence
   slots, shifting the data records' numbering without changing their
   content or order. *)
let render_record (r : Audit_record.t) =
  let image = r.Audit_record.image in
  Printf.sprintf "%s|%s|%s|%s|%s|%s" r.Audit_record.transid
    image.Audit_record.volume image.Audit_record.file image.Audit_record.key
    (Option.value ~default:"-" image.Audit_record.before)
    (Option.value ~default:"-" image.Audit_record.after)

let observe ~config =
  let cluster, _spec, tcp = three_node_cluster ~config ~with_tcp:true () in
  let tcp = Option.get tcp in
  List.iter (fun input -> Tcp.submit tcp ~terminal:0 input) schedule;
  Cluster.run cluster;
  let dispositions =
    List.map
      (fun (transid, d) ->
        ( transid,
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

let test_protocol_equivalence () =
  let baseline = observe ~config:Hw_config.default in
  check_int "2PC completes the schedule" (List.length schedule)
    baseline.completed;
  List.iter
    (fun (label, config) ->
      let paxos = observe ~config in
      check_int (label ^ ": same completions") baseline.completed
        paxos.completed;
      Alcotest.(check (list (pair string string)))
        (label ^ ": home dispositions identical")
        baseline.dispositions paxos.dispositions;
      List.iteri
        (fun i (base, other) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: node %d audit content identical" label (i + 1))
            base other)
        (List.combine baseline.audit_records paxos.audit_records);
      Alcotest.(check (list (option int)))
        (label ^ ": balances identical")
        baseline.balances paxos.balances)
    [ ("paxos-1", paxos_config 1); ("paxos-3", paxos_config 3) ]

(* ------------------------------------------------------------------ *)
(* Acceptor force window: every check an acceptor makes before its
   durability force is stale by the time the force returns, because the
   force suspends the fiber and concurrent messages for the same register
   run inside that window. Two interleavings pin the re-validation:

   - a ballot-0 decide suspended on its force while a recovery leader's
     higher-ballot phase one installs must be refused afterwards, not
     installed — otherwise the home counts an acceptor toward a majority
     whose promise never mentioned the manifest;
   - a phase one suspended on its force while a decide installs must
     report the manifest in its promise, not its stale pre-force
     snapshot — otherwise the leader proposes the abort default against
     a chosen commit.

   Both messages are sent from one client in one instant, so they arrive
   FIFO and the second is handled while the first is still forcing. *)

(* Send [payloads] to [to_node]'s acceptor from concurrent fibers of one
   client process (the fanout pattern), returning the replies in payload
   order. *)
let send_concurrently cluster ~node ~to_node payloads =
  let replies = Array.make (List.length payloads) None in
  let finished = ref false in
  Cluster.run_client cluster ~node ~cpu:1 (fun self ->
      let remaining = ref (List.length payloads) in
      let waker = ref None in
      List.iteri
        (fun i payload ->
          Process.spawn_fiber self (fun () ->
              (match
                 Rpc.call_name (Cluster.net cluster) ~self ~node:to_node
                   ~name:Tmf.Acceptor.process_name ~retries:0 payload
               with
              | Ok reply -> replies.(i) <- Some reply
              | Error _ -> ());
              decr remaining;
              if !remaining = 0 then
                match !waker with
                | Some resume ->
                    waker := None;
                    resume (Ok ())
                | None -> ()))
        payloads;
      if !remaining > 0 then Fiber.suspend (fun resume -> waker := Some resume);
      finished := true);
  let rec pump budget =
    if (not !finished) && budget > 0 then begin
      Cluster.run_for cluster (Sim_time.milliseconds 1);
      pump (budget - 1)
    end
  in
  pump 1_000;
  Array.to_list replies

let test_acceptor_revalidates_after_force () =
  let cluster, _spec, _ =
    three_node_cluster ~config:(paxos_config 3) ~with_tcp:false ()
  in
  (* Higher-ballot phase one first, home's ballot-0 decide inside its force
     window: the decide's pre-force "not superseded" check is stale and the
     decide must be nacked, leaving the register free for the leader. *)
  let replies =
    send_concurrently cluster ~node:1 ~to_node:2
      [
        Tmf.Acceptor.Pax_p1a
          { transid = "race-b"; instance = Tmf.Acceptor.Commit_instance;
            ballot = 7 };
        Tmf.Acceptor.Pax_decide
          { transid = "race-b"; home = 1; participants = [ 2 ] };
      ]
  in
  (match replies with
  | [ Some (Tmf.Acceptor.Pax_p1b { promised = 7; accepted = None }); decide ]
    ->
      check_bool "superseded decide is nacked" true
        (match decide with
        | Some (Tmf.Acceptor.Pax_nack _) -> true
        | _ -> false)
  | _ -> Alcotest.fail "phase one at ballot 7 was not promised");
  check_bool "nacked decide installed nothing" true
    (match
       send_concurrently cluster ~node:1 ~to_node:2
         [ Tmf.Acceptor.Pax_read "race-b" ]
     with
    | [ Some (Tmf.Acceptor.Pax_state []) ] -> true
    | _ -> false);
  (* Decide first, leader's phase one inside the decide's force window: the
     promise must carry the manifest accepted while it waited, not its
     stale pre-force [None] snapshot. *)
  let replies =
    send_concurrently cluster ~node:1 ~to_node:2
      [
        Tmf.Acceptor.Pax_decide
          { transid = "race-a"; home = 1; participants = [ 2 ] };
        Tmf.Acceptor.Pax_p1a
          { transid = "race-a"; instance = Tmf.Acceptor.Commit_instance;
            ballot = 7 };
      ]
  in
  match replies with
  | [ Some Tmf.Acceptor.Pax_p2b; Some (Tmf.Acceptor.Pax_p1b { accepted; _ }) ]
    ->
      check_bool "promise reports the manifest accepted during its force"
        true
        (match accepted with
        | Some (0, Tmf.Acceptor.Manifest [ 2 ]) -> true
        | _ -> false)
  | _ -> Alcotest.fail "decide was not accepted or phase one not promised"

(* ------------------------------------------------------------------ *)
(* Paxos recovery: the home dies between commit point and phase two *)

let short_limit config =
  { config with Hw_config.transaction_time_limit = Sim_time.seconds 2 }

let pin_at_node2 cluster spec =
  let base = Indoubt.partition_base spec ~node:2 in
  let pinned =
    Indoubt.pin_transfer cluster ~home:1 ~participant:2 ~from_account:base
      ~to_account:(base + 1) ~amount:40
  in
  check_bool "transaction pinned voted-yes" true
    (pinned.Indoubt.transid <> None);
  (base, pinned)

let data2_locked cluster =
  Tandem_lock.Lock_table.locked_count
    (Discprocess.lock_table (Cluster.discprocess cluster ~node:2 ~volume:"$DATA2"))

let test_paxos_decided_commits_without_home () =
  let cluster, spec, _ =
    three_node_cluster ~config:(short_limit (paxos_config 3)) ~with_tcp:false
      ()
  in
  let base, pinned = pin_at_node2 cluster spec in
  check_bool "decision reached the acceptors" true
    (Indoubt.decide_paxos cluster ~home:1 ~participants:[ 2 ] ~acceptor_count:3
       pinned);
  check_int "participant is in doubt" 1 (Indoubt.in_doubt_count cluster ~node:2);
  check_bool "participant holds locks" true (data2_locked cluster > 0);
  (* The home dies with phase two never sent. The participant's
     transaction timer finds the home unreachable and resolves through
     the surviving acceptor majority — no restart, no operator. *)
  Cluster.total_node_failure cluster ~node:1;
  Cluster.run ~until:(Sim_time.seconds 30) cluster;
  Alcotest.(check string)
    "participant learned the commit" "committed"
    (Indoubt.disposition_name (Indoubt.disposition cluster ~node:2 pinned));
  Alcotest.(check (option int))
    "debit applied" (Some 960)
    (Workload.account_balance cluster ~account:base);
  Alcotest.(check (option int))
    "credit applied" (Some 1_040)
    (Workload.account_balance cluster ~account:(base + 1));
  check_int "locks released" 0 (data2_locked cluster);
  check_int "no longer in doubt" 0 (Indoubt.in_doubt_count cluster ~node:2)

let test_paxos_undecided_aborts_by_recovery_ballot () =
  let cluster, spec, _ =
    three_node_cluster ~config:(short_limit (paxos_config 3)) ~with_tcp:false
      ()
  in
  let base, pinned = pin_at_node2 cluster spec in
  (* No decision cast: the commit instance is free at every acceptor.
     The home is lost AND unreachable (a reloaded home would answer the
     status probe itself), so the participant must become a recovery
     leader and pin the free instances to the abort default — the home
     cannot have committed a manifest that reached no majority. *)
  Cluster.total_node_failure cluster ~node:1;
  Net.fail_link (Cluster.net cluster) 1 2;
  Net.fail_link (Cluster.net cluster) 1 3;
  Cluster.run ~until:(Sim_time.seconds 30) cluster;
  Alcotest.(check string)
    "recovery ballot pinned the abort" "aborted"
    (Indoubt.disposition_name (Indoubt.disposition cluster ~node:2 pinned));
  Alcotest.(check (option int))
    "debit backed out" (Some 1_000)
    (Workload.account_balance cluster ~account:base);
  Alcotest.(check (option int))
    "credit backed out" (Some 1_000)
    (Workload.account_balance cluster ~account:(base + 1));
  check_int "locks released" 0 (data2_locked cluster);
  check_bool "a recovery ballot ran" true
    (Metrics.read_counter (Cluster.metrics cluster) "tmp.paxos_recoveries" >= 1)

let () =
  Alcotest.run "tandem_commitproto"
    [
      ( "equivalence",
        [
          Alcotest.test_case
            "2PC and Paxos Commit decide identically failure-free" `Quick
            test_protocol_equivalence;
        ] );
      ( "acceptor",
        [
          Alcotest.test_case "re-validates ballots across the force window"
            `Quick test_acceptor_revalidates_after_force;
        ] );
      ( "paxos recovery",
        [
          Alcotest.test_case "decided transaction commits without the home"
            `Quick test_paxos_decided_commits_without_home;
          Alcotest.test_case "undecided transaction aborts by recovery ballot"
            `Quick test_paxos_undecided_aborts_by_recovery_ballot;
        ] );
    ]
