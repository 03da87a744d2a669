(* E16 (ablation) — the DISCPROCESS cache: "a cache buffering scheme
   designed to keep the most recently referenced blocks of data in main
   memory."

   The same skewed debit-credit stream runs against volumes with different
   cache capacities; the table shows physical reads per transaction and
   latency falling as the working set becomes resident. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let measure ~cache_capacity =
  let cluster, spec =
    Workload.build_bank ~seed:113 ~cache_capacity ~accounts:2_000 ~tellers:20
      ~branches:10 ~servers:[ `Bank 4 ] ()
  in
  let store =
    Discprocess.store (Cluster.discprocess cluster ~node:1 ~volume:"$DATA1")
  in
  (* Hit rate over the run only: the counters keep counting across the
     cache clear that ends the load, so take them once the bank is built. *)
  let hits_at_start = Tandem_db.Store.cache_hits store
  and misses_at_start = Tandem_db.Store.cache_misses store in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:8
      ~program:Workload.debit_credit_program ()
  in
  let rng = Rng.create ~seed:29 in
  let offered = 8 * 40 in
  for i = 0 to offered - 1 do
    Tcp.submit tcp ~terminal:(i mod 8)
      (Workload.debit_credit_input rng spec ~skew:0.9 ())
  done;
  Cluster.run ~until:(Sim_time.minutes 6) cluster;
  record_registry
    ~label:(Printf.sprintf "cache=%d" cache_capacity)
    (Cluster.metrics cluster);
  let volume = Cluster.volume cluster ~node:1 ~volume:"$DATA1" in
  let hits = Tandem_db.Store.cache_hits store - hits_at_start
  and misses = Tandem_db.Store.cache_misses store - misses_at_start in
  let committed = max 1 (Tcp.completed tcp) in
  ( Tcp.completed tcp,
    offered,
    float_of_int (Tandem_disk.Volume.reads volume) /. float_of_int committed,
    100 * hits / max 1 (hits + misses),
    Metrics.mean (Metrics.read_sample (Cluster.metrics cluster) "encompass.tx_latency_ms") )

let run () =
  heading "E16 — cache capacity vs physical reads (ablation)";
  claim
    "the cache keeps the most recently referenced blocks in main memory; \
     disc accesses happen only for cold blocks";
  let rows =
    List.map
      (fun cache_capacity ->
        let committed, offered, reads_per_tx, hit_rate, latency =
          measure ~cache_capacity
        in
        [
          string_of_int cache_capacity;
          Printf.sprintf "%d/%d" committed offered;
          f2 reads_per_tx;
          Printf.sprintf "%d%%" hit_rate;
          f1 latency;
        ])
      [ 8; 32; 128; 512 ]
  in
  print_table
    ~columns:[ "cache blocks"; "committed"; "physical reads/tx"; "hit rate"; "latency ms" ]
    rows;
  observed
    "physical reads per transaction and latency fall steeply as the cache \
     grows to hold the skewed working set"
