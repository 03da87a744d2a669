(* E12 — RESTART-TRANSACTION and the configurable restart limit.

   A hot-spot workload (every transfer touches the same two accounts)
   generates transient lock-timeout failures; the sweep over the restart
   limit shows how many inputs are eventually carried to completion versus
   abandoned. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

(* Inputs submitted per restart limit. *)
let offered = 24

let measure ~restart_limit =
  let cluster, _spec =
    Workload.build_bank ~seed:83
      ~config:
        { Tandem_os.Hw_config.default with
          restart_limit;
          lock_timeout = Sim_time.seconds 1 }
      ~accounts:4 ~tellers:2 ~branches:2 ~initial_balance:100_000
      ~servers:[ `Transfer 4 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:4
      ~program:Workload.transfer_program ()
  in
  (* Four terminals all crossing the same pair of accounts: terminals 0/2
     transfer 0->1, terminals 1/3 transfer 1->0 — steady deadlock
     pressure. *)
  for i = 0 to offered - 1 do
    let forward = i mod 2 = 0 in
    Tcp.submit tcp ~terminal:(i mod 4)
      (Workload.transfer_input_between
         ~from_account:(if forward then 0 else 1)
         ~to_account:(if forward then 1 else 0)
         ~amount:1)
  done;
  Cluster.run ~until:(Sim_time.minutes 10) cluster;
  record_registry
    ~label:(Printf.sprintf "restart_limit=%d" restart_limit)
    (Cluster.metrics cluster);
  tcp

let run () =
  heading "E12 — the transaction restart limit";
  claim
    "a transaction that fails for a transient reason is backed out and \
     re-executed from BEGIN-TRANSACTION, up to a configurable restart limit";
  let measured =
    List.map (fun limit -> (limit, measure ~restart_limit:limit)) [ 0; 1; 2; 3; 5; 8 ]
  in
  let completed tcp = Printf.sprintf "%d/%d" (Tcp.completed tcp) offered in
  print_table
    ~columns:[ "restart limit"; "completed"; "restarts"; "abandoned" ]
    (List.map
       (fun (limit, tcp) ->
         [ string_of_int limit; completed tcp; string_of_int (Tcp.restarts tcp);
           string_of_int (Tcp.failures tcp) ])
       measured);
  (* Restart pauses are randomized, so one more allowed restart can
     complete fewer inputs: name every step that drops. *)
  let rec drops = function
    | (l1, t1) :: ((l2, t2) :: _ as rest) ->
        (if Tcp.completed t2 < Tcp.completed t1 then
           [ Printf.sprintf "from %s at limit %d to %s at limit %d" (completed t1) l1
               (completed t2) l2 ]
         else [])
        @ drops rest
    | _ -> []
  in
  let first_limit, first = List.hd measured in
  let last_limit, last = List.nth measured (List.length measured - 1) in
  observed
    "under this deliberately extreme contention completions rise from %s at \
     limit %d to %s at limit %d, %s; with no restarts allowed %d/%d inputs \
     die at their first lock timeout"
    (completed first) first_limit (completed last) last_limit
    (match drops measured with
    | [] -> "monotonically"
    | steps -> "not monotonically: it drops " ^ String.concat " and " steps)
    (Tcp.failures first) offered
