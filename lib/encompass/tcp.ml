open Tandem_sim
open Tandem_os
open Screen_program

type terminal = {
  index : int;
  queue : string Queue.t; (* inputs not yet started, oldest first *)
  mutable waiter : unit Fiber.resume option;
  mutable current_input : string option; (* checkpointed screen data *)
  mutable current_transid : Tmf.Transid.t option;
  mutable output : string option;
  mutable completed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable restarts : int;
}

type t = {
  net : Net.t;
  tmf : Tmf.t;
  node : Node.t;
  tcp_name : string;
  lookup_class : string -> (Ids.node_id * int) option;
  program : Screen_program.t;
  terminals : terminal array;
  backoff_rng : Rng.t;
  mutable pair : Process_pair.t option;
}

let checkpoint t =
  match t.pair with Some pair -> Process_pair.checkpoint pair | None -> ()

let metrics_sample t label = Metrics.sample (Net.metrics t.net) label

let observe_latency t started =
  let elapsed = Sim_time.diff (Engine.now (Net.engine t.net)) started in
  Metrics.observe (metrics_sample t "encompass.tx_latency_ms")
    (float_of_int elapsed /. 1e3)

let abort_quietly t process transid reason =
  match transid with
  | None -> `Not_in_transaction
  | Some transid -> (
      match Tmf.abort_transaction t.tmf ~self:process ~reason transid with
      | Ok () -> `Aborted
      | Error `Too_late -> (
          (* The transaction may in fact have committed (for example the
             END reply was lost in a takeover). *)
          match
            Tmf.disposition t.tmf ~node:(Tmf.Transid.home transid) transid
          with
          | Some Tandem_audit.Monitor_trail.Committed -> `Committed
          | Some Tandem_audit.Monitor_trail.Aborted | None -> `Aborted)
      | Error `Unreachable -> `Aborted)

(* END-TRANSACTION returned without a definite outcome (the TMP was slow or
   taking over): poll the home disposition before deciding. *)
let resolve_unknown t process transid =
  let rec poll attempts =
    match Tmf.disposition t.tmf ~node:(Tmf.Transid.home transid) transid with
    | Some Tandem_audit.Monitor_trail.Committed -> `Committed
    | Some Tandem_audit.Monitor_trail.Aborted -> `Aborted
    | None ->
        if attempts >= 10 then `Aborted
        else begin
          Fiber.sleep (Net.engine t.net) (Sim_time.milliseconds 500);
          poll (attempts + 1)
        end
  in
  ignore process;
  poll 0

let execute t term process input =
  let started = Engine.now (Net.engine t.net) in
  let restart_limit = (Net.config t.net).Hw_config.restart_limit in
  let rec attempt restarts_left =
    (* Back out anything a previous attempt (or a pre-takeover life of this
       terminal) left behind. *)
    match abort_quietly t process term.current_transid "restart cleanup" with
    | `Committed ->
        (* The interrupted attempt had actually committed (its END reply was
           lost): the input is done — re-executing it would apply the
           transaction twice. *)
        term.current_transid <- None;
        term.output <- Some "COMMITTED (outcome recovered after failure)";
        term.completed <- term.completed + 1;
        observe_latency t started
    | `Aborted | `Not_in_transaction ->
        term.current_transid <- None;
        run_attempt restarts_left
  and run_attempt restarts_left =
    let transaction = ref None in
    let ended = ref false in
    let verbs =
      {
        begin_transaction =
          (fun () ->
            let transid =
              Tmf.begin_transaction t.tmf ~node:(Node.id t.node)
                ~cpu:(Process.pid process).Ids.cpu
            in
            transaction := Some transid;
            term.current_transid <- Some transid;
            checkpoint t);
        end_transaction =
          (fun () ->
            match !transaction with
            | None -> raise (Abort_program "END-TRANSACTION outside transaction")
            | Some transid -> (
                match Tmf.end_transaction t.tmf ~self:process transid with
                | Ok () ->
                    ended := true;
                    term.current_transid <- None
                | Error (`Aborted reason) -> raise (Restart_transaction reason)
                | Error `Unknown_outcome -> (
                    match resolve_unknown t process transid with
                    | `Committed ->
                        ended := true;
                        term.current_transid <- None
                    | `Aborted ->
                        raise (Restart_transaction "outcome resolved to abort"))));
        abort_transaction = (fun ~reason -> raise (Abort_program reason));
        restart_transaction = (fun ~reason -> raise (Restart_transaction reason));
        send =
          (fun ~server_class body ->
            match t.lookup_class server_class with
            | None -> raise (Abort_program ("unknown server class " ^ server_class))
            | Some (node, members) -> (
                match
                  Server.send t.net ~self:process ~tmf:t.tmf
                    ?transid:!transaction ~node ~class_name:server_class
                    ~members body
                with
                | Ok reply -> reply
                | Error (Server.Transient reason) ->
                    raise (Restart_transaction reason)
                | Error (Server.Rejected reason) -> raise (Abort_program reason)));
        current_transid = (fun () -> !transaction);
      }
    in
    match
      let output = t.program.run verbs input in
      (* A program that returns while still in transaction mode commits
         implicitly. *)
      if !transaction <> None && not !ended then verbs.end_transaction ();
      output
    with
    | output ->
        term.output <- Some output;
        term.completed <- term.completed + 1;
        observe_latency t started
    | exception Restart_transaction reason ->
        term.restarts <- term.restarts + 1;
        Metrics.incr (Metrics.counter (Net.metrics t.net) "encompass.restarts");
        (match term.current_transid with
        | Some transid ->
            Span.incr_restarts (Net.spans t.net) (Tmf.Transid.to_string transid)
        | None -> ());
        if restarts_left > 0 then begin
          (* Randomized pause before re-executing: simultaneous restarts of
             crossing transactions would otherwise re-deadlock forever. *)
          let tried = restart_limit - restarts_left + 1 in
          Fiber.sleep (Net.engine t.net)
            (Sim_time.milliseconds
               (20 + Rng.int t.backoff_rng (150 * tried)));
          attempt (restarts_left - 1)
        end
        else begin
          (match abort_quietly t process term.current_transid reason with
          | _ -> term.current_transid <- None);
          term.failed <- term.failed + 1;
          term.output <- Some ("FAILED: " ^ reason)
        end
    | exception Abort_program reason ->
        (match abort_quietly t process term.current_transid reason with
        | _ -> term.current_transid <- None);
        term.aborted <- term.aborted + 1;
        term.output <- Some ("ABORTED: " ^ reason)
  in
  attempt restart_limit

let rec next_input term =
  match Queue.take_opt term.queue with
  | Some input -> input
  | None ->
      Fiber.suspend (fun resume -> term.waiter <- Some resume);
      next_input term

let rec terminal_loop t term process =
  (match term.current_input with
  | Some input ->
      (* An input interrupted by a takeover: re-execute from
         BEGIN-TRANSACTION with the checkpointed input — the terminal user
         does not re-enter the screen. *)
      Metrics.incr
        (Metrics.counter (Net.metrics t.net) "encompass.takeover_reexecutions");
      execute t term process input;
      term.current_input <- None;
      checkpoint t
  | None ->
      let input = next_input term in
      term.current_input <- Some input;
      checkpoint t;
      execute t term process input;
      term.current_input <- None;
      checkpoint t);
  terminal_loop t term process

let service t pair process =
  t.pair <- Some pair;
  Array.iter
    (fun term ->
      term.waiter <- None;
      Process.spawn_fiber process (fun () -> terminal_loop t term process))
    t.terminals;
  (* The service fiber itself only parks; terminal fibers do the work. *)
  Process_pair.serve pair process ignore

let spawn ~net ~tmf ~node ~name ~lookup_class ~primary_cpu ~backup_cpu
    ~terminals ~program =
  if terminals < 1 || terminals > 32 then
    invalid_arg "Tcp.spawn: a TCP controls 1 to 32 terminals";
  let t =
    {
      net;
      tmf;
      node;
      tcp_name = name;
      lookup_class;
      program;
      backoff_rng = Rng.split (Engine.rng (Net.engine net));
      terminals =
        Array.init terminals (fun index ->
            {
              index;
              queue = Queue.create ();
              waiter = None;
              current_input = None;
              current_transid = None;
              output = None;
              completed = 0;
              aborted = 0;
              failed = 0;
              restarts = 0;
            });
      pair = None;
    }
  in
  let pair =
    Process_pair.create ~net ~node ~name ~primary_cpu ~backup_cpu
      ~service:(service t)
  in
  t.pair <- Some pair;
  t

let name t = t.tcp_name

let submit t ~terminal input =
  if terminal < 0 || terminal >= Array.length t.terminals then
    invalid_arg "Tcp.submit: no such terminal";
  let term = t.terminals.(terminal) in
  Queue.push input term.queue;
  match term.waiter with
  | Some resume ->
      term.waiter <- None;
      resume (Ok ())
  | None -> ()

let terminal_count t = Array.length t.terminals

let last_output t ~terminal = t.terminals.(terminal).output

let sum t field = Array.fold_left (fun acc term -> acc + field term) 0 t.terminals

let completed t = sum t (fun term -> term.completed)

let program_aborts t = sum t (fun term -> term.aborted)

let failures t = sum t (fun term -> term.failed)

let restarts t = sum t (fun term -> term.restarts)
