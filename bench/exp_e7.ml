(* E7 — the abbreviated single-node two-phase commit versus the distributed
   TMP-to-TMP protocol, as a function of how many nodes a transaction
   touches (the paper's node 1 -> node 2 -> node 3 example generalized to a
   chain of four).

   Transactions update one record on each of the first k nodes; the table
   reports the network and coordination cost per transaction. *)

open Tandem_sim
open Tandem_db
open Tandem_encompass
open Bench_util

let nodes = 4

let accounts_per_node = 100

let touch_program =
  Screen_program.transaction ~name:"k-touch" (fun verbs input ->
      verbs.Screen_program.send ~server_class:"KTOUCH" input)

(* Update one account in each of the first k partitions. *)
let touch_handler rng ctx body =
  match Record.int_field body "k" with
  | None -> Error (Server.Rejected "malformed")
  | Some k ->
      let rec touch i =
        if i >= k then Ok "done"
        else begin
          let account = (i * accounts_per_node) + Rng.int rng accounts_per_node in
          let key = Key.of_int account in
          match
            File_client.read ctx.Server.files ~self:ctx.Server.server_process
              ?transid:ctx.Server.transid ~file:"ACCOUNT" key
          with
          | Ok (Some payload) -> (
              match
                File_client.update ctx.Server.files
                  ~self:ctx.Server.server_process ?transid:ctx.Server.transid
                  ~file:"ACCOUNT" key
                  (Record.set_field payload "balance" "7")
              with
              | Ok () -> touch (i + 1)
              | Error e -> Error (Server.map_file_error e))
          | Ok None -> Error (Server.Rejected "missing account")
          | Error e -> Error (Server.map_file_error e)
        end
      in
      touch 0

let measure ?(parallel = false) ~k ~transactions () =
  let config =
    { Tandem_os.Hw_config.default with parallel_prepare = parallel }
  in
  let cluster = Cluster.create ~seed:(100 + k) ~config () in
  for id = 1 to nodes do
    ignore (Cluster.add_node cluster ~id ~cpus:4)
  done;
  for id = 1 to nodes - 1 do
    Cluster.link cluster id (id + 1)
  done;
  let partitions =
    List.init nodes (fun i ->
        {
          Schema.low_key =
            (if i = 0 then Key.min_key else Key.of_int (i * accounts_per_node));
          node = i + 1;
          volume = Printf.sprintf "$D%d" (i + 1);
        })
  in
  List.iter
    (fun p ->
      ignore
        (Cluster.add_volume cluster ~node:p.Schema.node ~name:p.Schema.volume
           ~primary_cpu:2 ~backup_cpu:3 ()))
    partitions;
  Cluster.add_file cluster
    (Schema.define ~name:"ACCOUNT" ~organization:Schema.Key_sequenced ~degree:8
       ~partitions ());
  Cluster.load_file cluster ~file:"ACCOUNT"
    (List.init (nodes * accounts_per_node) (fun i ->
         (Key.of_int i, Record.encode [ ("balance", "1000") ])));
  let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
  ignore
    (Cluster.add_server_class cluster ~node:1 ~name:"KTOUCH" ~count:2
       (touch_handler rng));
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:1
      ~program:touch_program ()
  in
  let metrics = Cluster.metrics cluster in
  let before_msgs = Metrics.read_counter metrics "net.msgs_sent" in
  let before_bcast = Metrics.read_counter metrics "tmf.state_broadcast_msgs" in
  for _ = 1 to transactions do
    Tcp.submit tcp ~terminal:0 (Record.encode [ ("k", string_of_int k) ])
  done;
  Cluster.run ~until:(Sim_time.minutes 10) cluster;
  let label =
    Printf.sprintf "k=%d%s" k (if parallel then ",parallel" else "")
  in
  record_registry ~label metrics;
  record_spans ~label (Cluster.spans cluster);
  let committed = Tcp.completed tcp in
  let per count = float_of_int count /. float_of_int (max 1 committed) in
  ( committed,
    per (Metrics.read_counter metrics "net.msgs_sent" - before_msgs),
    per (Metrics.read_counter metrics "tmf.prepares_sent"),
    per (Metrics.read_counter metrics "tmf.safe_deliveries"),
    per (Metrics.read_counter metrics "tmf.state_broadcast_msgs" - before_bcast),
    Metrics.mean (Metrics.read_sample metrics "encompass.tx_latency_ms") )

let run () =
  heading "E7 — commit cost vs participating nodes (abbreviated vs distributed 2PC)";
  claim
    "within a node an abbreviated two-phase commit suffices; across nodes \
     phase one travels the transmission spanning tree as critical-response \
     messages and phase two as safe-delivery messages";
  let transactions = 20 in
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun parallel ->
            let committed, msgs, prepares, safe, broadcasts, latency =
              measure ~parallel ~k ~transactions ()
            in
            [
              string_of_int k;
              (if parallel then "parallel" else "serial");
              Printf.sprintf "%d/%d" committed transactions;
              f1 msgs;
              f2 prepares;
              f2 safe;
              f1 broadcasts;
              f1 latency;
            ])
          (if k = 1 then [ false ] else [ false; true ]))
      [ 1; 2; 3; 4 ]
  in
  print_table
    ~columns:
      [ "nodes touched"; "phase one"; "committed"; "net msgs/tx"; "prepares/tx";
        "safe-dlv/tx"; "state bcasts/tx"; "latency ms" ]
    rows;
  observed
    "one node: zero prepares (abbreviated protocol); each extra node adds one \
     critical-response prepare, one safe-delivery phase-two message and the \
     network round trips that carry them; parallel phase one (the default) \
     pays the slowest child's round trip instead of the sum, so its latency \
     advantage widens with every node touched"
