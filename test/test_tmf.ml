(* Unit tests for the TMF core types: transids, the Figure-3 state machine
   and the per-processor state tables with intra-node broadcast — plus the
   repeated-crash restart corner of the pluggable commit protocols. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Tandem_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Transid *)

let test_transid_round_trip () =
  let transid = Tmf.Transid.make ~home:7 ~cpu:3 ~seq:12345 in
  Alcotest.(check string) "render" "7.3.12345" (Tmf.Transid.to_string transid);
  check_int "home" 7 (Tmf.Transid.home transid);
  Alcotest.(check (list int)) "fields" [ 7; 3; 12345 ]
    [ transid.home; transid.cpu; transid.seq ]

(* Every table lookup renders a transid, so the rendering is made once and
   handed out as is. *)
let test_transid_rendered_once () =
  let transid = Tmf.Transid.make ~home:7 ~cpu:3 ~seq:12345 in
  let rendered = Tmf.Transid.to_string transid in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Tmf.Transid.to_string transid))
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "to_string allocates nothing" 0. allocated;
  check_bool "same physical string" true
    (Tmf.Transid.to_string transid == rendered)

(* A transid packs into one int: home and cpu in 0 .. 1023, seq in
   0 .. 2^30 - 1. [make] takes the bounds and refuses one past them. *)
let test_transid_bounds () =
  let max_seq = (1 lsl 30) - 1 in
  Alcotest.(check string) "largest" "1023.1023.1073741823"
    (Tmf.Transid.to_string (Tmf.Transid.make ~home:1023 ~cpu:1023 ~seq:max_seq));
  Alcotest.(check string) "smallest" "0.0.0"
    (Tmf.Transid.to_string (Tmf.Transid.make ~home:0 ~cpu:0 ~seq:0));
  List.iter
    (fun (home, cpu, seq) ->
      match Tmf.Transid.make ~home ~cpu ~seq with
      | _ -> Alcotest.failf "%d, %d, %d was accepted" home cpu seq
      | exception Invalid_argument _ -> ())
    [ (1024, 0, 0); (0, 1024, 0); (0, 0, max_seq + 1); (-1, 0, 0); (0, -1, 0);
      (0, 0, -1); (max_int, 0, 0) ]

let prop_transid_order_consistent =
  QCheck.Test.make ~name:"transid compare is a total order" ~count:200
    QCheck.(
      pair
        (triple (int_bound 5) (int_bound 3) (int_bound 20))
        (triple (int_bound 5) (int_bound 3) (int_bound 20)))
    (fun ((h1, c1, s1), (h2, c2, s2)) ->
      let a = Tmf.Transid.make ~home:h1 ~cpu:c1 ~seq:s1 in
      let b = Tmf.Transid.make ~home:h2 ~cpu:c2 ~seq:s2 in
      let c = Tmf.Transid.compare a b in
      (c = 0) = Tmf.Transid.equal a b
      && Tmf.Transid.compare b a = -c)

(* ------------------------------------------------------------------ *)
(* Tx_state: exactly the arcs of Figure 3 *)

let test_state_machine_arcs () =
  let open Tmf.Tx_state in
  let legal = [ (Active, Ending); (Active, Aborting); (Ending, Ended);
                (Ending, Aborting); (Aborting, Aborted) ] in
  List.iter
    (fun from ->
      List.iter
        (fun into ->
          let expected = List.mem (from, into) legal in
          check_bool
            (Printf.sprintf "%s -> %s" (to_string from) (to_string into))
            expected (legal_transition from into))
        all)
    all;
  check_bool "ended terminal" true (is_terminal Ended);
  check_bool "aborted terminal" true (is_terminal Aborted);
  check_bool "active not terminal" false (is_terminal Active)

(* ------------------------------------------------------------------ *)
(* Tx_table *)

let make_node () =
  let net = Net.create () in
  let node = Net.add_node net ~id:1 ~cpus:4 in
  (net, node, Tmf.Tx_table.create node)

let transid seq = Tmf.Transid.make ~home:1 ~cpu:0 ~seq

let broadcast table transid state =
  ignore (Tmf.Tx_table.broadcast table transid state)

let test_broadcast_reaches_every_cpu () =
  let net, _, table = make_node () in
  broadcast table (transid 1) Tmf.Tx_state.Active;
  Engine.run (Net.engine net);
  for cpu = 0 to 3 do
    match Tmf.Tx_table.state_on table ~cpu (transid 1) with
    | Some Tmf.Tx_state.Active -> ()
    | _ -> Alcotest.failf "cpu %d missed the broadcast" cpu
  done;
  check_int "one message per processor" 4 (Tmf.Tx_table.broadcasts_sent table)

let test_terminal_state_leaves_system () =
  let net, _, table = make_node () in
  broadcast table (transid 1) Tmf.Tx_state.Active;
  broadcast table (transid 1) Tmf.Tx_state.Ending;
  broadcast table (transid 1) Tmf.Tx_state.Ended;
  Engine.run (Net.engine net);
  check_bool "transid left the system" true
    (Tmf.Tx_table.state_on table ~cpu:0 (transid 1) = None)

let test_illegal_transition_faults () =
  let net, _, table = make_node () in
  broadcast table (transid 1) Tmf.Tx_state.Active;
  broadcast table (transid 1) Tmf.Tx_state.Ended;
  Alcotest.check_raises "active -> ended is illegal"
    (Invalid_argument "Tx_table: illegal transition active -> ended for 1.0.1")
    (fun () -> Engine.run (Net.engine net))

let test_down_cpu_misses_broadcast () =
  let net, node, table = make_node () in
  Node.fail_cpu node 3;
  Engine.run (Net.engine net);
  broadcast table (transid 1) Tmf.Tx_state.Active;
  Engine.run (Net.engine net);
  check_bool "up cpu sees it" true
    (Tmf.Tx_table.state_on table ~cpu:0 (transid 1) <> None);
  check_bool "down cpu does not" true
    (Tmf.Tx_table.state_on table ~cpu:3 (transid 1) = None);
  check_int "three messages only" 3 (Tmf.Tx_table.broadcasts_sent table)

let test_census_counts_transitions () =
  let net, _, table = make_node () in
  List.iter
    (fun seq ->
      broadcast table (transid seq) Tmf.Tx_state.Active;
      broadcast table (transid seq) Tmf.Tx_state.Ending;
      broadcast table (transid seq) Tmf.Tx_state.Ended)
    [ 1; 2; 3 ];
  broadcast table (transid 4) Tmf.Tx_state.Active;
  broadcast table (transid 4) Tmf.Tx_state.Aborting;
  broadcast table (transid 4) Tmf.Tx_state.Aborted;
  Engine.run (Net.engine net);
  let census = Tmf.Tx_table.transition_census table in
  let count arc = Option.value ~default:0 (List.assoc_opt arc census) in
  check_int "begins" 4 (count (None, Tmf.Tx_state.Active));
  check_int "endings" 3 (count (Some Tmf.Tx_state.Active, Tmf.Tx_state.Ending));
  check_int "commits" 3 (count (Some Tmf.Tx_state.Ending, Tmf.Tx_state.Ended));
  check_int "aborts" 1 (count (Some Tmf.Tx_state.Active, Tmf.Tx_state.Aborting));
  check_int "backouts" 1 (count (Some Tmf.Tx_state.Aborting, Tmf.Tx_state.Aborted))

(* The table as it was built before a broadcast became one event: one
   table per processor, one engine event per up processor, each applying
   the change on its own processor. *)
module Reference_table = struct
  type t = {
    node : Node.t;
    tables : (string, Tmf.Tx_state.t) Hashtbl.t array;
    mutable messages : int;
    census : (Tmf.Tx_state.t option * Tmf.Tx_state.t, int) Hashtbl.t;
  }

  let create node =
    let t =
      {
        node;
        tables = Array.init 4 (fun _ -> Hashtbl.create 64);
        messages = 0;
        census = Hashtbl.create 16;
      }
    in
    Node.on_cpu_up node (fun cpu -> Hashtbl.reset t.tables.(cpu));
    t

  let reset t = Array.iter Hashtbl.reset t.tables

  let apply t ~cpu transid new_state =
    let table = t.tables.(cpu) in
    let key = Tmf.Transid.to_string transid in
    let current = Hashtbl.find_opt table key in
    (match current with
    | Some from
      when from <> new_state
           && not (Tmf.Tx_state.legal_transition from new_state) ->
        invalid_arg
          (Printf.sprintf "Tx_table: illegal transition %s -> %s for %s"
             (Tmf.Tx_state.to_string from)
             (Tmf.Tx_state.to_string new_state)
             key)
    | Some _ | None -> ());
    if cpu = 0 then begin
      let arc = (current, new_state) in
      Hashtbl.replace t.census arc
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.census arc))
    end;
    if Tmf.Tx_state.is_terminal new_state then Hashtbl.remove table key
    else Hashtbl.replace table key new_state

  let broadcast t transid new_state =
    let up =
      List.filter (fun cpu -> Cpu.is_up (Node.cpu t.node cpu)) [ 0; 1; 2; 3 ]
    in
    t.messages <- t.messages + List.length up;
    List.iter
      (fun cpu ->
        Engine.post_after (Node.engine t.node) Hw_config.bus_latency
          (fun () ->
            if Cpu.is_up (Node.cpu t.node cpu) then apply t ~cpu transid new_state))
      up;
    List.length up

  let state_on t ~cpu transid =
    Hashtbl.find_opt t.tables.(cpu) (Tmf.Transid.to_string transid)

  let transition_census t =
    Hashtbl.fold (fun arc n acc -> (arc, n) :: acc) t.census []
end

(* Each op is three small ints, read by [drive]: a broadcast (mostly a
   legal next state of the transid, sometimes any state), a processor
   failure or reload, a node reset, or a run to a near instant. *)
let prop_one_event_broadcast_matches_reference =
  QCheck.Test.make ~name:"one-event broadcast = one event per processor"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 80) (triple small_nat small_nat small_nat))
    (fun ops ->
      let net_a = Net.create () and net_b = Net.create () in
      let node_a = Net.add_node net_a ~id:1 ~cpus:4 in
      let node_b = Net.add_node net_b ~id:1 ~cpus:4 in
      let table = Tmf.Tx_table.create node_a in
      let reference = Reference_table.create node_b in
      let transids = List.init 4 (fun seq -> transid (seq + 1)) in
      let intended = Array.make 4 None in
      let agree () =
        List.for_all
          (fun tid ->
            List.for_all
              (fun cpu ->
                Tmf.Tx_table.state_on table ~cpu tid
                = Reference_table.state_on reference ~cpu tid)
              [ 0; 1; 2; 3 ])
          transids
        && Tmf.Tx_table.transition_census table
           = Reference_table.transition_census reference
        && Tmf.Tx_table.broadcasts_sent table = reference.Reference_table.messages
      in
      let run_both until =
        let outcome net =
          match Engine.run ~until (Net.engine net) with
          | () -> None
          | exception Invalid_argument message -> Some message
        in
        let a = outcome net_a in
        let b = outcome net_b in
        (a = b, a <> None)
      in
      let next_state seq choice =
        let successors =
          match intended.(seq) with
          | None | Some (Tmf.Tx_state.Ended | Tmf.Tx_state.Aborted) ->
              [ Tmf.Tx_state.Active ]
          | Some Tmf.Tx_state.Active -> [ Tmf.Tx_state.Ending; Aborting ]
          | Some Tmf.Tx_state.Ending -> [ Tmf.Tx_state.Ended; Aborting ]
          | Some Tmf.Tx_state.Aborting -> [ Tmf.Tx_state.Aborted ]
        in
        if choice mod 8 = 0 then List.nth Tmf.Tx_state.all (choice / 8 mod 5)
        else List.nth successors (choice mod List.length successors)
      in
      let rec drive = function
        | [] ->
            let same, _ = run_both max_int in
            same && agree ()
        | (kind, a, b) :: rest -> (
            let cpu = a mod 4 in
            let step =
              match kind mod 10 with
              | 0 | 1 | 2 | 3 ->
                  let seq = a mod 4 in
                  let state = next_state seq b in
                  intended.(seq) <- Some state;
                  let tid = List.nth transids seq in
                  let sent = Tmf.Tx_table.broadcast table tid state in
                  `Continue
                    (sent = Reference_table.broadcast reference tid state)
              | 4 ->
                  Node.fail_cpu node_a cpu;
                  Node.fail_cpu node_b cpu;
                  `Continue true
              | 5 ->
                  Node.restore_cpu node_a cpu;
                  Node.restore_cpu node_b cpu;
                  `Continue true
              | 6 when b mod 4 = 0 ->
                  Tmf.Tx_table.reset table;
                  Reference_table.reset reference;
                  `Continue true
              | _ ->
                  let now = Engine.now (Net.engine net_a) in
                  let until =
                    Sim_time.add now (b mod 3 * Hw_config.bus_latency / 2)
                  in
                  let same, raised = run_both until in
                  if raised then `Stop same else `Continue same
            in
            match step with
            | `Stop same -> same && agree ()
            | `Continue same -> same && agree () && drive rest)
      in
      drive ops)

(* ------------------------------------------------------------------ *)
(* Repeated crash-restart: a voted-yes participant that fails totally,
   rolls forward, and fails totally again before the cluster heals must
   converge to the home's disposition under BOTH commit protocols — the
   protocols may only differ in WHEN the verdict becomes reachable. *)

let restart_cluster ~config =
  Workload.build_bank ~seed:11
    ~config:
      {
        config with
        (* Long enough that no transaction timer fires during the test:
           every resolution below comes from ROLLFORWARD negotiation. *)
        Hw_config.transaction_time_limit = Sim_time.seconds 60;
      }
    ~nodes:3 ~accounts:150 ~servers:[] ()

(* Pin a committed-but-unannounced transfer at node 2, cut the home off,
   then lose node 2 completely twice — recovering from the SAME archive
   each time — before healing the network and recovering once more.
   Returns the in-doubt stats of the two isolated restarts; the converged
   end state is asserted here for both protocols. *)
let repeated_crash_converges ~config ~decide =
  let cluster, spec = restart_cluster ~config in
  let archive = ref None in
  ignore
    (Engine.schedule_at (Cluster.engine cluster) Sim_time.zero (fun () ->
         archive := Some (Cluster.take_archive cluster ~node:2)));
  let base = Indoubt.partition_base spec ~node:2 in
  let pinned =
    Indoubt.pin_transfer cluster ~home:1 ~participant:2 ~from_account:base
      ~to_account:(base + 1) ~amount:37
  in
  check_bool "transaction pinned voted-yes" true
    (pinned.Indoubt.transid <> None);
  check_bool "commit decision made durable" true (decide cluster pinned);
  (* Isolate the home (full mesh, so both of its links must go), then
     crash and restart the participant twice. *)
  Net.fail_link (Cluster.net cluster) 1 2;
  Net.fail_link (Cluster.net cluster) 1 3;
  Cluster.total_node_failure cluster ~node:2;
  let stats1 = Cluster.rollforward_node cluster ~node:2 (Option.get !archive) in
  Cluster.total_node_failure cluster ~node:2;
  let stats2 = Cluster.rollforward_node cluster ~node:2 (Option.get !archive) in
  Net.restore_link (Cluster.net cluster) 1 2;
  Net.restore_link (Cluster.net cluster) 1 3;
  let stats3 = Cluster.rollforward_node cluster ~node:2 (Option.get !archive) in
  check_int "healed: nothing left in doubt" 0
    (List.length stats3.Tmf.Rollforward.in_doubt);
  Alcotest.(check (option int))
    "debit applied exactly once" (Some 963)
    (Workload.account_balance cluster ~account:base);
  Alcotest.(check (option int))
    "credit applied exactly once" (Some 1_037)
    (Workload.account_balance cluster ~account:(base + 1));
  check_int "locks released" 0
    (Tandem_lock.Lock_table.locked_count
       (Discprocess.lock_table
          (Cluster.discprocess cluster ~node:2 ~volume:"$DATA2")));
  (stats1, stats2)

let test_repeated_crash_2pc ~config () =
  let stats1, stats2 =
    repeated_crash_converges ~config
      ~decide:(fun cluster pinned -> Indoubt.decide_2pc cluster ~home:1 pinned)
  in
  (* Only the home knows the verdict: both isolated restarts stay in
     doubt (data conservatively backed out) until the network heals. *)
  check_int "first restart in doubt" 1
    (List.length stats1.Tmf.Rollforward.in_doubt);
  check_int "second restart still in doubt" 1
    (List.length stats2.Tmf.Rollforward.in_doubt)

let test_repeated_crash_paxos ~config () =
  let stats1, stats2 =
    repeated_crash_converges
      ~config:{ config with Hw_config.tmp_commit_protocol = `Paxos 3 }
      ~decide:(fun cluster pinned ->
        Indoubt.decide_paxos cluster ~home:1 ~participants:[ 2 ]
          ~acceptor_count:3 pinned)
  in
  (* The surviving acceptor majority answers without the home: neither
     restart has an in-doubt window, and the second redo is idempotent. *)
  check_int "first restart resolves" 0
    (List.length stats1.Tmf.Rollforward.in_doubt);
  check_int "second restart resolves" 0
    (List.length stats2.Tmf.Rollforward.in_doubt)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tmf_core"
    [
      ( "transid",
        [
          Alcotest.test_case "round trip" `Quick test_transid_round_trip;
          Alcotest.test_case "rendered once" `Quick test_transid_rendered_once;
          Alcotest.test_case "make refuses fields out of bounds" `Quick
            test_transid_bounds;
        ]
        @ qcheck [ prop_transid_order_consistent ] );
      ( "tx_state",
        [ Alcotest.test_case "figure 3 arcs" `Quick test_state_machine_arcs ] );
      ( "tx_table",
        [
          Alcotest.test_case "broadcast reaches every cpu" `Quick
            test_broadcast_reaches_every_cpu;
          Alcotest.test_case "terminal state leaves system" `Quick
            test_terminal_state_leaves_system;
          Alcotest.test_case "illegal transition faults" `Quick
            test_illegal_transition_faults;
          Alcotest.test_case "down cpu misses broadcast" `Quick
            test_down_cpu_misses_broadcast;
          Alcotest.test_case "census" `Quick test_census_counts_transitions;
        ]
        @ qcheck [ prop_one_event_broadcast_matches_reference ] );
      ( "repeated crash",
        [
          Alcotest.test_case "2pc: in doubt until healed, then converges"
            `Quick
            (test_repeated_crash_2pc ~config:Hw_config.default);
          Alcotest.test_case "paxos: resolves at every restart" `Quick
            (test_repeated_crash_paxos ~config:Hw_config.default);
          (* The same restart corners under parallel chain replay: the
             in-doubt transaction is backed out then reinstated by the
             later recoveries exactly as under the sequential baseline. *)
          Alcotest.test_case "2pc under chains:4 replay" `Quick
            (test_repeated_crash_2pc
               ~config:
                 {
                   Hw_config.default with
                   Hw_config.rollforward_parallelism = `Chains 4;
                 });
          Alcotest.test_case "paxos under chains:4 replay" `Quick
            (test_repeated_crash_paxos
               ~config:
                 {
                   Hw_config.default with
                   Hw_config.rollforward_parallelism = `Chains 4;
                 });
        ] );
    ]
