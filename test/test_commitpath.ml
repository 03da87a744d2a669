(* Equivalence and ordering properties for the commit-path batching knobs.

   Batching amortizes fixed costs — it must never change what the system
   does. One property pins per-(src,dst) FIFO delivery order under network
   boxcarring for random send schedules and window settings; the
   equivalence tests run the same seeded three-node transfer workload with
   every batching knob off, each knob on alone, and all knobs on, and
   require transaction dispositions, forced audit-trail contents and final
   balances to be byte-identical throughout. Two unit tests pin the
   group-commit window (concurrent forces share one physical write) and the
   wired-in volume cache (repeat reads stop paying disc accesses). *)

open Tandem_sim
open Tandem_os
open Tandem_audit
open Tandem_encompass

type Message.payload += Tagged of int

(* ------------------------------------------------------------------ *)
(* Boxcarring preserves per-(src,dst) FIFO order *)

let prop_boxcar_fifo =
  QCheck.Test.make
    ~name:"boxcarring preserves per-(src,dst) FIFO delivery order" ~count:100
    QCheck.(
      pair (int_bound 3)
        (list_of_size Gen.(1 -- 40) (pair (int_bound 2) (int_bound 500))))
    (fun (window_scale, sends) ->
      (* Windows 0/50/100/150 µs, each rider paying the fixed
         [Hw_config.boxcar_marginal_cost]; each send picks a destination
         node and a start offset, so sends land inside, astride and between
         boxcar windows. *)
      let config =
        {
          Hw_config.default with
          Hw_config.boxcar_window = Sim_time.microseconds (50 * window_scale);
        }
      in
      let net = Net.create ~config () in
      let node1 = Net.add_node net ~id:1 ~cpus:2 in
      let node2 = Net.add_node net ~id:2 ~cpus:2 in
      let node3 = Net.add_node net ~id:3 ~cpus:2 in
      Net.add_link net 1 2;
      Net.add_link net 1 3;
      let arrivals = Hashtbl.create 2 in
      let listener node =
        Node.spawn node ~cpu:0 (fun process ->
            let rec loop () =
              let message = Process.receive process in
              (match message.Message.payload with
              | Tagged i ->
                  let dst = (Process.pid process).Ids.node in
                  let seen =
                    Option.value ~default:[] (Hashtbl.find_opt arrivals dst)
                  in
                  Hashtbl.replace arrivals dst (i :: seen)
              | _ -> ());
              loop ()
            in
            loop ())
      in
      let listener2 = listener node2 and listener3 = listener node3 in
      let sent = Hashtbl.create 2 in
      ignore
        (Node.spawn node1 ~cpu:1 (fun process ->
             let src = Process.pid process in
             List.iteri
               (fun i (dst_choice, offset) ->
                 let dst_node = if dst_choice = 0 then 2 else 3 in
                 let dst =
                   Process.pid (if dst_node = 2 then listener2 else listener3)
                 in
                 let order =
                   Option.value ~default:[] (Hashtbl.find_opt sent dst_node)
                 in
                 Hashtbl.replace sent dst_node (i :: order);
                 ignore
                   (Engine.schedule_after (Net.engine net)
                      (Sim_time.microseconds offset) (fun () ->
                        Net.send net
                          (Message.oneway ~src ~dst (Tagged i)))))
               sends));
      Engine.run (Net.engine net);
      List.for_all
        (fun dst ->
          let sent_order =
            List.rev (Option.value ~default:[] (Hashtbl.find_opt sent dst))
          in
          (* The order Net.send actually ran in is the sends to this
             destination stably re-sorted by start offset: the engine fires
             same-instant events in scheduling order, which is iteration
             (send) order. Arrivals must replay it exactly. *)
          let invoked_order =
            List.map (fun i -> (snd (List.nth sends i), i)) sent_order
            |> List.stable_sort (fun (o1, _) (o2, _) -> Int.compare o1 o2)
            |> List.map snd
          in
          let arrived =
            List.rev (Option.value ~default:[] (Hashtbl.find_opt arrivals dst))
          in
          arrived = invoked_order)
        [ 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Knob-by-knob equivalence on the three-node transfer workload *)

let knobs_off =
  {
    Hw_config.default with
    Hw_config.dp_checkpoint_coalescing = false;
    boxcar_window = 0;
    group_commit_window = 0;
    disc_cache_blocks = 0;
  }

let knob_variants =
  [
    ("coalescing", { knobs_off with Hw_config.dp_checkpoint_coalescing = true });
    ( "boxcar",
      { knobs_off with Hw_config.boxcar_window = Sim_time.microseconds 100 }
    );
    ( "group-commit",
      { knobs_off with Hw_config.group_commit_window = Sim_time.microseconds 200 }
    );
    ("disc-cache", { knobs_off with Hw_config.disc_cache_blocks = 64 });
    ( "all-on",
      {
        Hw_config.default with
        Hw_config.group_commit_window = Sim_time.microseconds 200;
        disc_cache_blocks = 64;
      } );
  ]

let three_node_cluster ~config =
  let cluster, _spec =
    Workload.build_bank ~seed:11 ~config ~nodes:3 ~accounts:150
      ~servers:[ `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:2
      ~program:Workload.transfer_program ()
  in
  (cluster, tcp)

(* Transfers whose two accounts straddle nodes 2 and 3, so the commit path
   exercises cross-node prepares, safe deliveries and both audit volumes. *)
let transfers =
  [
    (60, 110, 25);
    (115, 70, 40);
    (10, 130, 15);
    (80, 120, 30);
    (125, 65, 10);
  ]

type observation = {
  completed : int;
  dispositions : (string * string) list list; (* per node *)
  audit_records : string list list; (* per node, forced prefix *)
  balances : int option list;
}

let node_state cluster node = Tmf.node_state (Cluster.tmf cluster) node

let render_record (r : Audit_record.t) =
  let image = r.Audit_record.image in
  Printf.sprintf "%d|%s|%s|%s|%s|%s|%s" r.Audit_record.sequence
    r.Audit_record.transid image.Audit_record.volume image.Audit_record.file
    image.Audit_record.key
    (Option.value ~default:"-" image.Audit_record.before)
    (Option.value ~default:"-" image.Audit_record.after)

let observe ~config =
  let cluster, tcp = three_node_cluster ~config in
  List.iter
    (fun (from_account, to_account, amount) ->
      Tcp.submit tcp ~terminal:0
        (Workload.transfer_input_between ~from_account ~to_account ~amount))
    transfers;
  Cluster.run cluster;
  let dispositions =
    List.map
      (fun node ->
        List.map
          (fun (transid, d) ->
            ( transid,
              match d with
              | Monitor_trail.Committed -> "committed"
              | Monitor_trail.Aborted -> "aborted" ))
          (Monitor_trail.entries (node_state cluster node).Tmf.Tmf_state.monitor))
      [ 1; 2; 3 ]
  in
  let audit_records =
    List.map
      (fun node ->
        let state = node_state cluster node in
        Hashtbl.fold (fun name trail acc -> (name, trail) :: acc)
          state.Tmf.Tmf_state.trails []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.concat_map (fun (name, trail) ->
               List.map
                 (fun r -> name ^ ":" ^ render_record r)
                 (Audit_trail.records_from trail ~sequence:0)))
      [ 1; 2; 3 ]
  in
  let balances =
    List.map
      (fun account -> Workload.account_balance cluster ~account)
      [ 10; 60; 65; 70; 80; 110; 115; 120; 125; 130 ]
  in
  { completed = Tcp.completed tcp; dispositions; audit_records; balances }

let test_knob_equivalence () =
  let baseline = observe ~config:knobs_off in
  Alcotest.(check int)
    "baseline completes every transfer" (List.length transfers)
    baseline.completed;
  List.iter
    (fun (label, config) ->
      let batched = observe ~config in
      Alcotest.(check int)
        (label ^ ": same completions")
        baseline.completed batched.completed;
      List.iteri
        (fun i (base, knob) ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: node %d dispositions identical" label (i + 1))
            base knob)
        (List.combine baseline.dispositions batched.dispositions);
      List.iteri
        (fun i (base, knob) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: node %d audit trail identical" label (i + 1))
            base knob)
        (List.combine baseline.audit_records batched.audit_records);
      Alcotest.(check (list (option int)))
        (label ^ ": balances identical")
        baseline.balances batched.balances)
    knob_variants

(* ------------------------------------------------------------------ *)
(* Group-commit window: near-simultaneous forces share one write *)

let test_group_commit_window_batches () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$GC"
      ~access_time:(Sim_time.milliseconds 25)
  in
  let daemon =
    Tandem_disk.Force_daemon.create ~window:(Sim_time.microseconds 500) volume
  in
  let served = ref 0 in
  (* Wishes arrive 100 µs apart — all inside the 500 µs window, so one
     physical write must cover all five. *)
  for i = 0 to 4 do
    ignore
      (Engine.schedule_after engine
         (Sim_time.microseconds (100 * i))
         (fun () ->
           ignore
             (Fiber.spawn (fun () ->
                  Tandem_disk.Force_daemon.force daemon;
                  incr served))))
  done;
  Engine.run engine;
  Alcotest.(check int) "every force served" 5 !served;
  Alcotest.(check int)
    "one physical write" 1
    (Tandem_disk.Force_daemon.physical_forces daemon);
  Alcotest.(check int)
    "one forced volume write" 1
    (Tandem_disk.Volume.forced_writes volume)

(* ------------------------------------------------------------------ *)
(* Volume cache: repeat block reads stop paying disc accesses *)

let test_volume_cache_read_path () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create ~cache_blocks:8 engine ~metrics ~name:"$CV"
      ~access_time:(Sim_time.milliseconds 25)
  in
  ignore
    (Fiber.spawn (fun () ->
         for _ = 1 to 4 do
           for block = 0 to 3 do
             Tandem_disk.Volume.read_block volume block
           done
         done));
  Engine.run engine;
  Alcotest.(check int)
    "only compulsory misses hit the disc" 4
    (Tandem_disk.Volume.reads volume);
  Alcotest.(check int)
    "hits" 12
    (Metrics.read_counter metrics "disk.cache_hits");
  Alcotest.(check int)
    "misses" 4
    (Metrics.read_counter metrics "disk.cache_misses")

let test_volume_cache_write_behind () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create ~cache_blocks:8 engine ~metrics ~name:"$WB"
      ~access_time:(Sim_time.milliseconds 25)
  in
  ignore
    (Fiber.spawn (fun () ->
         for block = 0 to 3 do
           Tandem_disk.Volume.write_block volume block
         done;
         (* Absorbed: no physical write yet. *)
         Alcotest.(check int) "writes absorbed" 0
           (Tandem_disk.Volume.writes volume);
         Tandem_disk.Volume.force_io volume));
  Engine.run engine;
  (* The force flushed all four dirty blocks under one physical write. *)
  Alcotest.(check int) "one physical write" 1 (Tandem_disk.Volume.writes volume);
  Alcotest.(check int) "write-behind backlog counted" 4
    (Metrics.read_counter metrics "disk.cache_write_behind")

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_commitpath"
    [
      ("boxcar fifo", qcheck [ prop_boxcar_fifo ]);
      ( "knob equivalence",
        [
          Alcotest.test_case "dispositions, audit trails and balances" `Quick
            test_knob_equivalence;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "window batches concurrent forces" `Quick
            test_group_commit_window_batches;
        ] );
      ( "volume cache",
        [
          Alcotest.test_case "read path" `Quick test_volume_cache_read_path;
          Alcotest.test_case "write-behind on force" `Quick
            test_volume_cache_write_behind;
        ] );
    ]
