(* Tests for the simulated GUARDIAN layer: messages, processes, RPC, the
   network and the process-pair mechanism. *)

open Tandem_sim
open Tandem_os

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Message.payload += Echo of string | Echoed of string | Note of int

(* A network of [n] nodes in a chain 1-2-3-... with [cpus] processors each. *)
let make_net ?(nodes = 1) ?(cpus = 4) () =
  let net = Net.create () in
  let node_list =
    List.init nodes (fun i -> Net.add_node net ~id:(i + 1) ~cpus)
  in
  List.iteri
    (fun i _ -> if i > 0 then Net.add_link net i (i + 1))
    node_list;
  net

let echo_server process net =
  let rec loop () =
    let message = Process.receive process in
    (match message.Message.payload with
    | Echo text -> Rpc.reply net ~self:process ~to_:message (Echoed text)
    | _ -> ());
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)

let test_local_message_delivery () =
  let net = make_net () in
  let node = Net.node net 1 in
  let received = ref None in
  let listener =
    Node.spawn node ~cpu:0 (fun process ->
        let message = Process.receive process in
        received := Some message.Message.payload)
  in
  ignore
    (Node.spawn node ~cpu:1 (fun process ->
         Net.send net
           (Message.oneway ~src:(Process.pid process)
              ~dst:(Process.pid listener) (Note 42))));
  Engine.run (Net.engine net);
  (match !received with
  | Some (Note 42) -> ()
  | _ -> Alcotest.fail "message not delivered");
  check_bool "bus transfer takes time" true (Engine.now (Net.engine net) > 0)

let test_rpc_round_trip () =
  let net = make_net () in
  let node = Net.node net 1 in
  let server = Node.spawn node ~cpu:0 (fun p -> echo_server p net) in
  let answer = ref "" in
  ignore
    (Node.spawn node ~cpu:1 (fun process ->
         match
           Rpc.call net ~self:process ~dst:(Process.pid server) (Echo "hi")
         with
         | Ok (Echoed text) -> answer := text
         | Ok _ -> Alcotest.fail "wrong reply payload"
         | Error e -> Alcotest.failf "rpc error: %a" Rpc.pp_error e));
  Engine.run (Net.engine net);
  Alcotest.(check string) "echoed" "hi" !answer

let test_rpc_timeout_on_dead_destination () =
  let net = make_net () in
  let node = Net.node net 1 in
  let server = Node.spawn node ~cpu:0 (fun p -> echo_server p net) in
  Node.fail_cpu node 0;
  let result = ref None in
  ignore
    (Node.spawn node ~cpu:1 (fun process ->
         result :=
           Some
             (Rpc.call net ~self:process ~dst:(Process.pid server)
                ~timeout:(Sim_time.milliseconds 100) (Echo "hi"))));
  Engine.run (Net.engine net);
  (match !result with
  | Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout")

let test_cross_node_rpc () =
  let net = make_net ~nodes:3 () in
  let node1 = Net.node net 1 and node3 = Net.node net 3 in
  let server = Node.spawn node3 ~cpu:0 (fun p -> echo_server p net) in
  let answer = ref "" in
  ignore
    (Node.spawn node1 ~cpu:0 (fun process ->
         match
           Rpc.call net ~self:process ~dst:(Process.pid server) (Echo "far")
         with
         | Ok (Echoed text) -> answer := text
         | _ -> Alcotest.fail "cross-node rpc failed"));
  Engine.run (Net.engine net);
  Alcotest.(check string) "echoed across two hops" "far" !answer;
  (* Two network hops each way, at least. *)
  check_bool "network latency paid" true
    (Engine.now (Net.engine net) >= 4 * Hw_config.network_latency)

let test_routing_reroutes_after_link_failure () =
  (* Triangle 1-2, 2-3, 1-3: direct 1-3 link fails, route goes via 2. *)
  let net = Net.create () in
  List.iter (fun i -> ignore (Net.add_node net ~id:i ~cpus:2)) [ 1; 2; 3 ];
  Net.add_link net 1 2;
  Net.add_link net 2 3;
  Net.add_link net 1 3;
  (match Net.route net 1 3 with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "expected direct route");
  Net.fail_link net 1 3;
  (match Net.route net 1 3 with
  | Some (2, _) -> ()
  | _ -> Alcotest.fail "expected rerouted two-hop path");
  Net.fail_link net 1 2;
  check_bool "unreachable after partition" false (Net.reachable net 1 3);
  Net.restore_link net 1 3;
  check_bool "reachable again" true (Net.reachable net 1 3)

let test_partition_and_heal () =
  let net = Net.create () in
  List.iter (fun i -> ignore (Net.add_node net ~id:i ~cpus:2)) [ 1; 2; 3; 4 ];
  Net.add_link net 1 2;
  Net.add_link net 2 3;
  Net.add_link net 3 4;
  Net.add_link net 4 1;
  Net.partition net [ 1; 2 ] [ 3; 4 ];
  check_bool "1 cannot reach 3" false (Net.reachable net 1 3);
  check_bool "1 still reaches 2" true (Net.reachable net 1 2);
  check_bool "3 still reaches 4" true (Net.reachable net 3 4);
  Net.heal_partition net;
  check_bool "healed" true (Net.reachable net 1 3)

let test_end_to_end_retransmit_through_glitch () =
  (* A link glitch shorter than the retransmission budget must not lose the
     message. *)
  let net = make_net ~nodes:2 () in
  let node1 = Net.node net 1 and node2 = Net.node net 2 in
  let received = ref false in
  let listener =
    Node.spawn node2 ~cpu:0 (fun process ->
        let _ = Process.receive process in
        received := true)
  in
  Net.fail_link net 1 2;
  ignore
    (Node.spawn node1 ~cpu:0 (fun process ->
         Net.send net
           (Message.oneway ~src:(Process.pid process)
              ~dst:(Process.pid listener) (Note 1))));
  (* Heal while the end-to-end protocol is still retrying. *)
  ignore
    (Engine.schedule_at (Net.engine net) (Sim_time.milliseconds 300) (fun () ->
         Net.restore_link net 1 2));
  Engine.run (Net.engine net);
  check_bool "delivered after glitch" true !received

let test_unroutable_message_gives_up () =
  let net = make_net ~nodes:2 () in
  let node1 = Net.node net 1 and node2 = Net.node net 2 in
  let received = ref false in
  let listener =
    Node.spawn node2 ~cpu:0 (fun process ->
        let _ = Process.receive process in
        received := true)
  in
  Net.fail_link net 1 2;
  ignore
    (Node.spawn node1 ~cpu:0 (fun process ->
         Net.send net
           (Message.oneway ~src:(Process.pid process)
              ~dst:(Process.pid listener) (Note 1))));
  (* Never heal: the end-to-end protocol exhausts its attempts and drops. *)
  Engine.run (Net.engine net);
  check_bool "dropped" false !received;
  check_int "give-up counted" 1
    (Metrics.read_counter (Net.metrics net) "net.msgs_dropped_unroutable");
  check_bool "retransmissions attempted" true
    (Metrics.read_counter (Net.metrics net) "net.retransmits" >= 1)

let test_call_name_no_such_name () =
  let net = make_net () in
  let node = Net.node net 1 in
  let result = ref None in
  ignore
    (Node.spawn node ~cpu:0 (fun process ->
         result :=
           Some
             (Rpc.call_name net ~self:process ~node:1 ~name:"$NOWHERE"
                ~retries:1 (Echo "hi"))));
  Engine.run (Net.engine net);
  match !result with
  | Some (Error `No_such_name) -> ()
  | _ -> Alcotest.fail "expected No_such_name"

let test_late_reply_discarded () =
  (* The server replies after the requester timed out: the reply must be
     silently dropped, not delivered to a later request. *)
  let net = make_net () in
  let node = Net.node net 1 in
  let slow_server =
    Node.spawn node ~cpu:0 (fun process ->
        let message = Process.receive process in
        Fiber.sleep (Net.engine net) (Sim_time.seconds 1);
        Rpc.reply net ~self:process ~to_:message Message.Pong)
  in
  let outcomes = ref [] in
  ignore
    (Node.spawn node ~cpu:1 (fun process ->
         let first =
           Rpc.call net ~self:process ~dst:(Process.pid slow_server)
             ~timeout:(Sim_time.milliseconds 100) Message.Ping
         in
         outcomes := ("first", first) :: !outcomes;
         (* A second call with a fresh correlation: the late Pong from the
            first must not satisfy it. *)
         let second =
           Rpc.call net ~self:process ~dst:(Process.pid slow_server)
             ~timeout:(Sim_time.milliseconds 100) Message.Ping
         in
         outcomes := ("second", second) :: !outcomes));
  Engine.run (Net.engine net);
  (match List.assoc "first" !outcomes with
  | Error `Timeout -> ()
  | _ -> Alcotest.fail "first should time out");
  match List.assoc "second" !outcomes with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "second must not receive the first's late reply"
  | Error `No_such_name -> Alcotest.fail "unexpected name error"

let test_cpu_failure_kills_processes () =
  let net = make_net () in
  let node = Net.node net 1 in
  let survived = ref false and victim_progressed = ref false in
  ignore
    (Node.spawn node ~cpu:0 (fun _ ->
         Fiber.sleep (Net.engine net) (Sim_time.seconds 1);
         victim_progressed := true));
  ignore
    (Node.spawn node ~cpu:1 (fun _ ->
         Fiber.sleep (Net.engine net) (Sim_time.seconds 1);
         survived := true));
  ignore
    (Engine.schedule_at (Net.engine net) (Sim_time.milliseconds 500) (fun () ->
         Node.fail_cpu node 0));
  Engine.run (Net.engine net);
  check_bool "victim stopped" false !victim_progressed;
  check_bool "other processor unaffected" true !survived

let test_both_buses_down_drops_cross_cpu_traffic () =
  let net = make_net () in
  let node = Net.node net 1 in
  let received = ref 0 in
  let listener =
    Node.spawn node ~cpu:0 (fun process ->
        let rec loop () =
          let _ = Process.receive process in
          incr received;
          loop ()
        in
        loop ())
  in
  Node.fail_bus node `X;
  Node.fail_bus node `Y;
  ignore
    (Node.spawn node ~cpu:1 (fun process ->
         Net.send net
           (Message.oneway ~src:(Process.pid process)
              ~dst:(Process.pid listener) (Note 1))));
  Engine.run (Net.engine net);
  check_int "dropped" 0 !received;
  Node.restore_bus node `X;
  ignore
    (Node.spawn node ~cpu:1 (fun process ->
         Net.send net
           (Message.oneway ~src:(Process.pid process)
              ~dst:(Process.pid listener) (Note 2))));
  Engine.run (Net.engine net);
  check_int "single bus suffices" 1 !received

(* Each fixed hardware cost is paid exactly where it applies: a same-CPU,
   a cross-CPU (bus) and a cross-node delivery, and the I'm-alive detection
   delay before a processor's down hooks run. Boxcarring is off so the
   cross-node delivery pays the link latency alone. *)
let test_fixed_costs_wired () =
  let net =
    Net.create ~config:{ Hw_config.default with boxcar_window = 0 } ()
  in
  let node1 = Net.add_node net ~id:1 ~cpus:4 in
  ignore (Net.add_node net ~id:2 ~cpus:4);
  Net.add_link net 1 2;
  let engine = Net.engine net in
  let delivery_time ~node ~cpu =
    let arrived = ref None in
    let listener =
      Node.spawn (Net.node net node) ~cpu (fun process ->
          ignore (Process.receive process);
          arrived := Some (Engine.now engine))
    in
    let sent = Engine.now engine in
    ignore
      (Node.spawn node1 ~cpu:0 (fun process ->
           Net.send net
             (Message.oneway ~src:(Process.pid process)
                ~dst:(Process.pid listener) (Note 0))));
    Engine.run engine;
    match !arrived with
    | Some at -> Sim_time.diff at sent
    | None -> Alcotest.fail "message not delivered"
  in
  check_int "same cpu" Hw_config.same_cpu_latency
    (delivery_time ~node:1 ~cpu:0);
  check_int "cross cpu" Hw_config.bus_latency (delivery_time ~node:1 ~cpu:1);
  check_int "cross node" Hw_config.network_latency
    (delivery_time ~node:2 ~cpu:0);
  let failed_at = Sim_time.add (Engine.now engine) (Sim_time.milliseconds 5) in
  let detected = ref [] in
  Node.on_cpu_down node1 (fun cpu ->
      detected := (cpu, Engine.now engine) :: !detected);
  ignore (Engine.schedule_at engine failed_at (fun () -> Node.fail_cpu node1 3));
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "down hooks fire after the detection interval"
    [ (3, Sim_time.add failed_at Hw_config.failure_detection) ]
    !detected

let test_cpu_consume_serializes () =
  let net = make_net () in
  let node = Net.node net 1 in
  let cpu = Node.cpu node 0 in
  let finish_times = ref [] in
  for _ = 1 to 3 do
    ignore
      (Fiber.spawn (fun () ->
           Cpu.consume cpu (Sim_time.milliseconds 10);
           finish_times := Engine.now (Net.engine net) :: !finish_times))
  done;
  Engine.run (Net.engine net);
  Alcotest.(check (list int))
    "fifo service"
    [ 10_000; 20_000; 30_000 ]
    (List.rev !finish_times)

(* Property: best-path routing agrees with a Floyd–Warshall reference on
   random topologies with random link failures. *)
let prop_routing_matches_reference =
  QCheck.Test.make ~name:"routing agrees with Floyd-Warshall" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 12) (triple (int_bound 5) (int_bound 5) (int_range 1 20)))
        (list_of_size Gen.(0 -- 4) (pair (int_bound 5) (int_bound 5))))
    (fun (links, failures) ->
      let nodes = 6 in
      let net = Net.create () in
      for id = 0 to nodes - 1 do
        ignore (Net.add_node net ~id ~cpus:2)
      done;
      let added = Hashtbl.create 16 in
      List.iter
        (fun (a, b, latency_ms) ->
          if a <> b && not (Hashtbl.mem added (min a b, max a b)) then begin
            Hashtbl.replace added (min a b, max a b) latency_ms;
            Net.add_link net a b ~latency:(Sim_time.milliseconds latency_ms)
          end)
        links;
      List.iter
        (fun (a, b) -> if a <> b then Net.fail_link net a b)
        failures;
      let alive = Hashtbl.copy added in
      List.iter
        (fun (a, b) -> if a <> b then Hashtbl.remove alive (min a b, max a b))
        failures;
      (* Floyd–Warshall over the surviving links. *)
      let infinity_ms = max_int / 4 in
      let dist = Array.make_matrix nodes nodes infinity_ms in
      for i = 0 to nodes - 1 do
        dist.(i).(i) <- 0
      done;
      Hashtbl.iter
        (fun (a, b) latency_ms ->
          let w = Sim_time.milliseconds latency_ms in
          if w < dist.(a).(b) then begin
            dist.(a).(b) <- w;
            dist.(b).(a) <- w
          end)
        alive;
      for k = 0 to nodes - 1 do
        for i = 0 to nodes - 1 do
          for j = 0 to nodes - 1 do
            if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
              dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
          done
        done
      done;
      let ok = ref true in
      for a = 0 to nodes - 1 do
        for b = 0 to nodes - 1 do
          match Net.route net a b with
          | Some (_, latency) ->
              if latency <> dist.(a).(b) then ok := false
          | None -> if dist.(a).(b) < infinity_ms then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Process pairs *)

(* A tiny stateful service: stores an integer register that both halves
   share; requests add to it and reply with the new value, checkpointing
   before they act. *)
type Message.payload += Add of int | Sum of int

type register = { mutable total : int }

let register_pair net node ~primary_cpu ~backup_cpu =
  let register = { total = 0 } in
  Process_pair.create ~net ~node ~name:"$REG" ~primary_cpu ~backup_cpu
    ~service:(fun pair process ->
      Process_pair.serve pair process (fun message ->
          match message.Message.payload with
          | Add n ->
              Process_pair.checkpoint pair;
              register.total <- register.total + n;
              Rpc.reply net ~self:process ~to_:message (Sum register.total)
          | _ -> ()))

let call_add net node from_cpu n =
  let result = ref None in
  ignore
    (Node.spawn node ~cpu:from_cpu (fun process ->
         result :=
           Some
             (Rpc.call_name net ~self:process ~node:(Node.id node)
                ~name:"$REG" (Add n))));
  Engine.run (Net.engine net);
  !result

let test_pair_serves_requests () =
  let net = make_net () in
  let node = Net.node net 1 in
  let _pair = register_pair net node ~primary_cpu:0 ~backup_cpu:1 in
  (match call_add net node 2 5 with
  | Some (Ok (Sum 5)) -> ()
  | _ -> Alcotest.fail "first add failed");
  match call_add net node 2 7 with
  | Some (Ok (Sum 12)) -> ()
  | _ -> Alcotest.fail "second add failed"

let test_pair_takeover_preserves_state () =
  let net = make_net () in
  let node = Net.node net 1 in
  let pair = register_pair net node ~primary_cpu:0 ~backup_cpu:1 in
  (match call_add net node 2 5 with
  | Some (Ok (Sum 5)) -> ()
  | _ -> Alcotest.fail "setup add failed");
  Node.fail_cpu node 0;
  Engine.run (Net.engine net);
  check_int "one takeover" 1 (Process_pair.takeovers pair);
  check_bool "pair still up" true (Process_pair.is_up pair);
  (* The checkpointed state survived; a name-addressed request reaches the
     new primary transparently. *)
  match call_add net node 2 3 with
  | Some (Ok (Sum 8)) -> ()
  | other ->
      Alcotest.failf "post-takeover add failed (%s)"
        (match other with
        | Some (Error e) -> Format.asprintf "%a" Rpc.pp_error e
        | _ -> "unexpected")

let test_pair_rebirth_allows_second_failure () =
  let net = make_net () in
  let node = Net.node net 1 in
  let pair = register_pair net node ~primary_cpu:0 ~backup_cpu:1 in
  ignore (call_add net node 3 5);
  Node.fail_cpu node 0;
  Engine.run (Net.engine net);
  (* The promoted primary created a new backup; kill the new primary too. *)
  Node.fail_cpu node 1;
  Engine.run (Net.engine net);
  check_int "two takeovers" 2 (Process_pair.takeovers pair);
  check_bool "still up after two sequential failures" true
    (Process_pair.is_up pair);
  match call_add net node 3 1 with
  | Some (Ok (Sum 6)) -> ()
  | _ -> Alcotest.fail "state lost across two takeovers"

let test_pair_double_failure_takes_service_down () =
  let net = make_net ~cpus:2 () in
  let node = Net.node net 1 in
  let pair = register_pair net node ~primary_cpu:0 ~backup_cpu:1 in
  (* Simultaneous loss of both processors: no takeover possible. *)
  Node.fail_cpu node 0;
  Node.fail_cpu node 1;
  Engine.run (Net.engine net);
  check_bool "pair down" false (Process_pair.is_up pair);
  check_bool "name unregistered" true
    (Option.is_none (Node.lookup_name node "$REG"))

(* One checkpoint is counted once, holds the primary for the bus round trip
   and charges the backup's processor one message; with a dead backup it is
   still counted but returns at once, both before the failure is detected
   and after (when no spare processor can host a new backup). *)
let test_pair_checkpoint_cost () =
  let checkpoint_once ~cpus ~fail_backup ~after =
    let net = make_net ~cpus () in
    let node = Net.node net 1 in
    let engine = Net.engine net in
    let elapsed = ref None in
    ignore
      (Process_pair.create ~net ~node ~name:"$CKPT" ~primary_cpu:0
         ~backup_cpu:1 ~service:(fun pair _process ->
           Fiber.sleep engine after;
           let started = Engine.now engine in
           Process_pair.checkpoint pair;
           elapsed := Some (Sim_time.diff (Engine.now engine) started)));
    if fail_backup then Node.fail_cpu node 1;
    Engine.run engine;
    ( Metrics.read_counter (Net.metrics net) "os.checkpoints",
      Option.get !elapsed,
      Cpu.total_busy (Node.cpu node 1) )
  in
  let count, elapsed, backup_busy =
    checkpoint_once ~cpus:4 ~fail_backup:false ~after:0
  in
  check_int "one checkpoint counted" 1 count;
  check_int "primary waits the bus round trip" (2 * Hw_config.bus_latency)
    elapsed;
  check_int "backup charged one message" Hw_config.cpu_message_cost
    backup_busy;
  List.iter
    (fun (label, after) ->
      let count, elapsed, _ = checkpoint_once ~cpus:2 ~fail_backup:true ~after in
      check_int ("counted with a dead backup, " ^ label) 1 count;
      check_int ("returns at once with a dead backup, " ^ label) 0 elapsed)
    [
      ("before detection", Sim_time.milliseconds 1);
      ("after detection", 2 * Hw_config.failure_detection);
    ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_os"
    [
      ( "messages",
        [
          Alcotest.test_case "local delivery" `Quick test_local_message_delivery;
          Alcotest.test_case "rpc round trip" `Quick test_rpc_round_trip;
          Alcotest.test_case "rpc timeout" `Quick test_rpc_timeout_on_dead_destination;
          Alcotest.test_case "cross-node rpc" `Quick test_cross_node_rpc;
        ] );
      ( "network",
        [
          Alcotest.test_case "reroute after link failure" `Quick
            test_routing_reroutes_after_link_failure;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "end-to-end retransmit" `Quick
            test_end_to_end_retransmit_through_glitch;
          Alcotest.test_case "unroutable gives up" `Quick
            test_unroutable_message_gives_up;
          Alcotest.test_case "no such name" `Quick test_call_name_no_such_name;
          Alcotest.test_case "late reply discarded" `Quick test_late_reply_discarded;
        ]
        @ qcheck [ prop_routing_matches_reference ] );
      ( "hardware",
        [
          Alcotest.test_case "cpu failure kills processes" `Quick
            test_cpu_failure_kills_processes;
          Alcotest.test_case "dual bus redundancy" `Quick
            test_both_buses_down_drops_cross_cpu_traffic;
          Alcotest.test_case "cpu fifo service" `Quick test_cpu_consume_serializes;
          Alcotest.test_case "fixed costs wired" `Quick test_fixed_costs_wired;
        ] );
      ( "process_pair",
        [
          Alcotest.test_case "serves requests" `Quick test_pair_serves_requests;
          Alcotest.test_case "takeover preserves state" `Quick
            test_pair_takeover_preserves_state;
          Alcotest.test_case "rebirth allows second failure" `Quick
            test_pair_rebirth_allows_second_failure;
          Alcotest.test_case "double failure downs service" `Quick
            test_pair_double_failure_takes_service_down;
          Alcotest.test_case "checkpoint cost" `Quick test_pair_checkpoint_cost;
        ] );
    ]
