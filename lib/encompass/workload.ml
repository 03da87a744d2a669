open Tandem_sim
open Tandem_db

type bank_spec = {
  accounts : int;
  tellers : int;
  branches : int;
  initial_balance : int;
  account_partitions : (Tandem_os.Ids.node_id * string) list;
  system_home : Tandem_os.Ids.node_id * string;
}

let account_file = "ACCOUNT"

let teller_file = "TELLER"

let branch_file = "BRANCH"

let history_file = "HISTORY"

let balance_payload balance =
  Record.encode [ ("balance", string_of_int balance) ]

let install_bank cluster spec =
  if spec.account_partitions = [] then
    invalid_arg "Workload.install_bank: no account partitions";
  let partition_count = List.length spec.account_partitions in
  let account_partitions =
    List.mapi
      (fun i (node, volume) ->
        let low_key =
          if i = 0 then Key.min_key
          else Key.of_int (i * spec.accounts / partition_count)
        in
        { Schema.low_key; node; volume })
      spec.account_partitions
  in
  let system_node, system_volume = spec.system_home in
  let single_partition =
    [ { Schema.low_key = Key.min_key; node = system_node; volume = system_volume } ]
  in
  (* Tellers and branches spread over the same volumes as the accounts, so
     added discs genuinely share the load (Figure 2's point). *)
  let spread count =
    List.mapi
      (fun i (node, volume) ->
        let low_key =
          if i = 0 then Key.min_key
          else Key.of_int (i * count / partition_count)
        in
        { Schema.low_key; node; volume })
      spec.account_partitions
  in
  Cluster.add_file cluster
    (Schema.define ~name:account_file ~organization:Schema.Key_sequenced
       ~degree:8 ~partitions:account_partitions ());
  Cluster.add_file cluster
    (Schema.define ~name:teller_file ~organization:Schema.Key_sequenced
       ~degree:8 ~partitions:(spread spec.tellers) ());
  Cluster.add_file cluster
    (Schema.define ~name:branch_file ~organization:Schema.Key_sequenced
       ~degree:8 ~partitions:(spread spec.branches) ());
  Cluster.add_file cluster
    (Schema.define ~name:history_file ~organization:Schema.Entry_sequenced
       ~degree:32 ~partitions:single_partition ());
  (* Payloads are immutable strings: every row shares one. The rows are
     loaded a few thousand at a time, so a bank's rows never live at once;
     loads in ascending batches build the blocks one load would. *)
  let payload = balance_payload spec.initial_balance in
  let load file count =
    let batch = 4096 in
    let rec from lo =
      if lo < count then begin
        let hi = min count (lo + batch) in
        Cluster.load_file cluster ~file
          (List.init (hi - lo) (fun j -> (Key.of_int (lo + j), payload)));
        from hi
      end
    in
    from 0
  in
  load account_file spec.accounts;
  load teller_file spec.tellers;
  load branch_file spec.branches

(* ------------------------------------------------------------------ *)
(* Server handlers *)

let add_to_balance ctx ~file ~key delta =
  let files = ctx.Server.files in
  let self = ctx.Server.server_process in
  let transid = ctx.Server.transid in
  match File_client.read files ~self ?transid ~file key with
  | Error e -> Error (Server.map_file_error e)
  | Ok None -> Error (Server.Rejected "no such record")
  | Ok (Some payload) -> (
      let balance =
        Option.value ~default:0 (Record.int_field payload "balance")
      in
      let updated = Record.set_field payload "balance" (string_of_int (balance + delta)) in
      match File_client.update files ~self ?transid ~file key updated with
      | Ok () -> Ok (balance + delta)
      | Error e -> Error (Server.map_file_error e))

(* The history file is a parameter so a scaled-out configuration can give
   every node a local history partition (one entry-sequenced file per
   branch region) instead of funnelling every append to one volume. *)
let bank_handler_for ~history_file:history_file_param ctx body =
  match
    ( Record.int_field body "account",
      Record.int_field body "teller",
      Record.int_field body "branch",
      Record.int_field body "delta" )
  with
  | Some account, Some teller, Some branch, Some delta -> (
      match add_to_balance ctx ~file:account_file ~key:(Key.of_int account) delta with
      | Error _ as e -> e
      | Ok new_balance -> (
          match add_to_balance ctx ~file:teller_file ~key:(Key.of_int teller) delta with
          | Error _ as e -> e
          | Ok _ -> (
              match add_to_balance ctx ~file:branch_file ~key:(Key.of_int branch) delta with
              | Error _ as e -> e
              | Ok _ -> (
                  let history =
                    Record.encode
                      [
                        ("account", string_of_int account);
                        ("delta", string_of_int delta);
                      ]
                  in
                  match
                    File_client.append ctx.Server.files
                      ~self:ctx.Server.server_process
                      ?transid:ctx.Server.transid ~file:history_file_param
                      history
                  with
                  | Ok _ ->
                      Ok (Record.encode [ ("balance", string_of_int new_balance) ])
                  | Error e -> Error (Server.map_file_error e)))))
  | _ -> Error (Server.Rejected "malformed debit-credit request")

(* Balance inquiry: a pure read — the transaction locks the account record
   but writes no audit images, so under the read-only vote optimization it
   commits with no forced writes anywhere. *)
let inquiry_handler ctx body =
  match Record.int_field body "account" with
  | Some account -> (
      match
        File_client.read ctx.Server.files ~self:ctx.Server.server_process
          ?transid:ctx.Server.transid ~file:account_file (Key.of_int account)
      with
      | Error e -> Error (Server.map_file_error e)
      | Ok None -> Error (Server.Rejected "no such account")
      | Ok (Some payload) ->
          let balance =
            Option.value ~default:0 (Record.int_field payload "balance")
          in
          Ok (Record.encode [ ("balance", string_of_int balance) ]))
  | None -> Error (Server.Rejected "malformed balance inquiry")

let transfer_handler ctx body =
  match
    ( Record.int_field body "from",
      Record.int_field body "to",
      Record.int_field body "amount" )
  with
  | Some from_account, Some to_account, Some amount -> (
      match
        add_to_balance ctx ~file:account_file ~key:(Key.of_int from_account)
          (-amount)
      with
      | Error _ as e -> e
      | Ok _ -> (
          match
            add_to_balance ctx ~file:account_file ~key:(Key.of_int to_account)
              amount
          with
          | Error _ as e -> e
          | Ok _ -> Ok (Record.encode [ ("moved", string_of_int amount) ])))
  | _ -> Error (Server.Rejected "malformed transfer request")

(* Server-class names are global to the cluster, so a multi-node
   configuration that wants local request processing on every node (the
   scale-out benchmark) registers one class per node under a distinct
   name — e.g. BANK3 on node 3 — with a screen program to match. *)

let add_bank_servers cluster ~node ?(class_name = "BANK")
    ?(history_file = history_file) ~count () =
  Cluster.add_server_class cluster ~node ~name:class_name ~count
    (bank_handler_for ~history_file)

let add_transfer_servers cluster ~node ?(class_name = "TRANSFER") ~count () =
  Cluster.add_server_class cluster ~node ~name:class_name ~count
    transfer_handler

let add_inquiry_servers cluster ~node ?(class_name = "INQUIRY") ~count () =
  Cluster.add_server_class cluster ~node ~name:class_name ~count
    inquiry_handler

(* ------------------------------------------------------------------ *)
(* The standard bank *)

let build_bank ?seed ?config ?(nodes = 1) ?(cpus = 4) ?volumes
    ?cache_capacity ?(tellers = 10) ?(branches = 5) ?(initial_balance = 1_000)
    ~accounts ~servers () =
  let cluster = Cluster.create ?seed ?config () in
  let node_ids = List.init nodes (fun i -> i + 1) in
  List.iter (fun id -> ignore (Cluster.add_node cluster ~id ~cpus)) node_ids;
  List.iter
    (fun a ->
      List.iter (fun b -> if a < b then Cluster.link cluster a b) node_ids)
    node_ids;
  (* A volume's rank among the earlier volumes of its node staggers its
     DISCPROCESS pair over the node's processors. *)
  let ranks = Hashtbl.create 8 in
  let partitions =
    List.mapi
      (fun i node ->
        let rank = Option.value ~default:0 (Hashtbl.find_opt ranks node) in
        Hashtbl.replace ranks node (rank + 1);
        let name = Printf.sprintf "$DATA%d" (i + 1) in
        ignore
          (Cluster.add_volume cluster ~node ~name
             ~primary_cpu:((2 + rank) mod cpus)
             ~backup_cpu:((3 + rank) mod cpus)
             ?cache_capacity ());
        (node, name))
      (Option.value volumes ~default:node_ids)
  in
  let system_home =
    match partitions with
    | home :: _ -> home
    | [] -> invalid_arg "Workload.build_bank: no data volumes"
  in
  let spec =
    {
      accounts;
      tellers;
      branches;
      initial_balance;
      account_partitions = partitions;
      system_home;
    }
  in
  install_bank cluster spec;
  List.iter
    (fun server_class ->
      ignore
        (match server_class with
        | `Bank count -> add_bank_servers cluster ~node:1 ~count ()
        | `Transfer count -> add_transfer_servers cluster ~node:1 ~count ()
        | `Inquiry count -> add_inquiry_servers cluster ~node:1 ~count ()))
    servers;
  (cluster, spec)

(* ------------------------------------------------------------------ *)
(* Order entry *)

let order_file = "ORDER"

let customer_index = "ORDER-BY-CUSTOMER"

let install_orders cluster ~home =
  let node, volume = home in
  Cluster.add_file cluster
    (Schema.define ~name:order_file ~organization:Schema.Key_sequenced
       ~degree:8
       ~indices:[ { Schema.index_name = customer_index; on_field = "customer" } ]
       ~partitions:[ { Schema.low_key = Key.min_key; node; volume } ]
       ())

let order_handler ctx body =
  let files = ctx.Server.files in
  let self = ctx.Server.server_process in
  let transid = ctx.Server.transid in
  match Record.field body "kind" with
  | Some "new" -> (
      match (Record.int_field body "order", Record.field body "customer") with
      | Some order, Some customer -> (
          let payload =
            Record.encode
              [
                ("customer", customer);
                ("item", Option.value ~default:"0" (Record.field body "item"));
                ("status", "open");
              ]
          in
          match
            File_client.insert files ~self ?transid ~file:order_file
              (Key.of_int order) payload
          with
          | Ok () -> Ok (Record.encode [ ("order", string_of_int order) ])
          | Error e -> Error (Server.map_file_error e))
      | _ -> Error (Server.Rejected "malformed new-order request"))
  | Some "query" -> (
      match Record.field body "customer" with
      | Some customer -> (
          match
            File_client.lookup_index files ~self ?transid ~file:order_file
              ~index:customer_index customer
          with
          | Ok keys ->
              Ok (Record.encode [ ("count", string_of_int (List.length keys)) ])
          | Error e -> Error (Server.map_file_error e))
      | None -> Error (Server.Rejected "malformed query"))
  | Some _ | None -> Error (Server.Rejected "unknown order request kind")

let add_order_servers cluster ~node ~count =
  Cluster.add_server_class cluster ~node ~name:"ORDER" ~count order_handler

let order_entry_program =
  Screen_program.transaction ~name:"order-entry" (fun verbs input ->
      verbs.Screen_program.send ~server_class:"ORDER" input)

let new_order_input ~order ~customer ~item =
  Record.encode
    [
      ("kind", "new");
      ("order", string_of_int order);
      ("customer", string_of_int customer);
      ("item", string_of_int item);
    ]

let customer_query_input ~customer =
  Record.encode [ ("kind", "query"); ("customer", string_of_int customer) ]

(* ------------------------------------------------------------------ *)
(* Screen programs and input generators *)

let debit_credit_program_for ~server_class =
  Screen_program.transaction
    ~name:("debit-credit:" ^ server_class)
    (fun verbs input -> verbs.Screen_program.send ~server_class input)

let transfer_program_for ~server_class =
  Screen_program.transaction
    ~name:("transfer:" ^ server_class)
    (fun verbs input -> verbs.Screen_program.send ~server_class input)

let balance_inquiry_program_for ~server_class =
  Screen_program.transaction
    ~name:("balance-inquiry:" ^ server_class)
    (fun verbs input -> verbs.Screen_program.send ~server_class input)

let debit_credit_program =
  Screen_program.transaction ~name:"debit-credit" (fun verbs input ->
      verbs.Screen_program.send ~server_class:"BANK" input)

let transfer_program =
  Screen_program.transaction ~name:"transfer" (fun verbs input ->
      verbs.Screen_program.send ~server_class:"TRANSFER" input)

let balance_inquiry_program =
  Screen_program.transaction ~name:"balance-inquiry" (fun verbs input ->
      verbs.Screen_program.send ~server_class:"INQUIRY" input)

let balance_inquiry_input rng spec ?(skew = 0.0) () =
  Record.encode
    [ ("account", string_of_int (Rng.zipf rng ~n:spec.accounts ~theta:skew)) ]

let debit_credit_input rng spec ?(skew = 0.0) () =
  let account = Rng.zipf rng ~n:spec.accounts ~theta:skew in
  Record.encode
    [
      ("account", string_of_int account);
      ("teller", string_of_int (Rng.int rng spec.tellers));
      ("branch", string_of_int (Rng.int rng spec.branches));
      ("delta", string_of_int (Rng.int_in_range rng ~lo:(-100) ~hi:100));
    ]

let transfer_input_between ~from_account ~to_account ~amount =
  Record.encode
    [
      ("from", string_of_int from_account);
      ("to", string_of_int to_account);
      ("amount", string_of_int amount);
    ]

let transfer_input rng spec ?(skew = 0.0) () =
  let from_account = Rng.zipf rng ~n:spec.accounts ~theta:skew in
  let to_account =
    (from_account + 1 + Rng.int rng (max 1 (spec.accounts - 1)))
    mod spec.accounts
  in
  transfer_input_between ~from_account ~to_account
    ~amount:(Rng.int_in_range rng ~lo:1 ~hi:50)

(* ------------------------------------------------------------------ *)
(* Direct observation *)

(* Observation reads run outside any fiber: suspend physical-I/O charging
   for their duration. *)
let uncharged dp f =
  let store = Discprocess.store dp in
  Store.set_charging store false;
  Fun.protect ~finally:(fun () -> Store.set_charging store true) f

let account_balance cluster ~account =
  match Schema.find (Cluster.dictionary cluster) account_file with
  | None -> None
  | Some def -> (
      let key = Key.of_int account in
      let partition = Schema.partition_for def key in
      let dp =
        Cluster.discprocess cluster ~node:partition.Schema.node
          ~volume:partition.Schema.volume
      in
      match Discprocess.file dp account_file with
      | None -> None
      | Some file ->
          uncharged dp (fun () ->
              Option.bind (File.read file key) (fun payload ->
                  Record.int_field payload "balance")))

let total_balance cluster (_spec : bank_spec) =
  match Schema.find (Cluster.dictionary cluster) account_file with
  | None -> 0
  | Some def ->
      List.fold_left
        (fun acc partition ->
          let dp =
            Cluster.discprocess cluster ~node:partition.Schema.node
              ~volume:partition.Schema.volume
          in
          match Discprocess.file dp account_file with
          | None -> acc
          | Some file ->
              uncharged dp (fun () ->
                  let total = ref acc in
                  File.iter file (fun _ payload ->
                      total :=
                        !total
                        + Option.value ~default:0
                            (Record.int_field payload "balance"));
                  !total))
        0 def.Schema.partitions

let orders_for_customer cluster ~home ~customer =
  let node, volume = home in
  let dp = Cluster.discprocess cluster ~node ~volume in
  match Discprocess.file dp order_file with
  | None -> 0
  | Some file ->
      uncharged dp (fun () ->
          List.length
            (File.lookup_index file ~index:customer_index
               (string_of_int customer)))

let history_count cluster spec =
  let node, volume = spec.system_home in
  let dp = Cluster.discprocess cluster ~node ~volume in
  match Discprocess.file dp history_file with
  | None -> 0
  | Some file -> File.count file

let committed_delta_sum cluster spec =
  let node, volume = spec.system_home in
  let dp = Cluster.discprocess cluster ~node ~volume in
  match Discprocess.file dp history_file with
  | None -> 0
  | Some file ->
      uncharged dp (fun () ->
          let total = ref 0 in
          File.iter file (fun _ payload ->
              total :=
                !total
                + Option.value ~default:0 (Record.int_field payload "delta"));
          !total)
