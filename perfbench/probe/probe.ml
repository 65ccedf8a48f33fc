(* In-process probe for the repo benchmark.

     probe expected ALGO M N D K
       Protocol.expected_values_transferred for a pairwise shape.
     probe distance ALGO BAND X.csv Y.csv
       Ppst_timeseries.Distance on two series (BAND < 0: unbanded); the
       harness self-tests compare this with the benchmark's own oracle.
     probe layers --key FILE --algo A --strategy S [--band B]
                  --client X.csv --server Y.csv [--catalog DIR --radius R]
                  --single-port P --workers-port P --spool-dir DIR
                  --spans FILE --op ID
       Times each layer's public functions at the workload's key, spec
       and series and prints one JSON object of per-layer metrics.

   Every timed call runs inside a span (name, start, stop, parent, and
   the operation id shared by the spans of one measurement); spans are
   kept in memory and written to --spans as JSON lines at exit. *)

open Ppst_bigint
module P = Ppst_paillier.Paillier
module Rng = Ppst_rng.Secure_rng
module Series = Ppst_timeseries.Series
module Csv = Ppst_timeseries.Csv
module Distance = Ppst_timeseries.Distance
module Store = Ppst_catalog.Store
module Channel = Ppst_transport.Channel
module Message = Ppst_transport.Message
module Stats = Ppst_transport.Stats
module Metrics = Ppst_telemetry.Metrics
module Clock = Ppst_telemetry.Telemetry

(* --- spans ------------------------------------------------------------- *)

type span = {
  sid : int;
  parent : int;
  op : int;
  name : string;
  start : float;
  stop : float;
}

let spans = ref []
let next_sid = ref 0
let stack = ref [ 0 ]
let op_id = ref 0

let span name f =
  incr next_sid;
  let sid = !next_sid in
  let parent = List.hd !stack in
  stack := sid :: !stack;
  let start = Clock.now () in
  let close () =
    stack := List.tl !stack;
    spans := { sid; parent; op = !op_id; name; start; stop = Clock.now () } :: !spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

let write_spans file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"source\":\"probe\",\"span\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start\":%.6f,\"stop\":%.6f}\n"
        s.sid s.parent s.op s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* --- timing helpers ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median per-call seconds over batches of [batch] calls; at least five
   batches and about [min_s] seconds of work in all. *)
let unit_cost ?(min_s = 0.3) ~batch name f =
  let samples = ref [] and total = ref 0.0 and count = ref 0 in
  while !count < 5 || (!total < min_s && !count < 400) do
    let dt =
      span name (fun () ->
          let t0 = Clock.now () in
          for _ = 1 to batch do
            ignore (Sys.opaque_identity (f ()))
          done;
          Clock.now () -. t0)
    in
    samples := (dt /. float_of_int batch) :: !samples;
    total := !total +. dt;
    incr count
  done;
  median !samples

let timed name f =
  let t0 = Clock.now () in
  let v = span name f in
  (v, Clock.now () -. t0)

(* --- arguments --------------------------------------------------------- *)

let options args =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | k :: _ -> failwith ("probe: unexpected argument " ^ k)
  in
  go args;
  ( (fun k ->
      match Hashtbl.find_opt tbl k with
      | Some v -> v
      | None -> failwith ("probe: missing --" ^ k)),
    Hashtbl.find_opt tbl )

let algo_of_string = function
  | "dtw" -> `Dtw
  | "dfd" -> `Dfd
  | "euclidean" -> `Euclidean
  | s -> failwith ("probe: unknown algo " ^ s)

let load_key file =
  let ic = open_in_bin file in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  snd (P.private_key_of_string text)

let max_value s = max 1 (Series.max_abs_value s)

(* --- in-process sessions ----------------------------------------------- *)

(* One pairwise session over a loopback channel, as Protocol.run builds
   it but with the workload's own key. *)
let pairwise ~sk ~spec ~x ~y =
  let server =
    Ppst.Server.create_with_key ~sk ~rng:(Rng.system ()) ~series:y
      ~max_value:(max_value y) ()
  in
  let channel = Channel.local (Ppst.Server.handle server) in
  let client =
    Ppst.Client.connect ~rng:(Rng.system ()) ~series:x ~max_value:(max_value x)
      ~distance:(spec.Ppst.Protocol.algo :> Ppst.Client.distance_kind)
      channel
  in
  let distance = Ppst.Protocol.runner_of_spec spec client in
  (server, channel, client, distance)

let stage_sum name =
  (Metrics.histogram_snapshot (Metrics.histogram name)).Metrics.sum

(* far enough that the secure lower bound discards it at any radius the
   server series itself meets *)
let far_copy s = Series.map (Array.map (fun v -> v + 1000)) s

(* --- layers ------------------------------------------------------------ *)

let layers opt opt_opt =
  let sk = load_key (opt "key") in
  let pk = sk.P.public in
  let algo = algo_of_string (opt "algo") in
  let band = Option.map int_of_string (opt_opt "band") in
  let strategy = if opt "strategy" = "wavefront" then `Wavefront else `Full in
  let spec = Ppst.Protocol.spec ?band ~strategy algo in
  let x = Csv.load (opt "client") and y = Csv.load (opt "server") in
  op_id := int_of_string (opt "op");
  let rng = Rng.of_seed_string "perfbench-probe" in
  let out = ref [] in
  let put name v = out := (name, v) :: !out in
  (* bigint: Montgomery arithmetic mod n^2 *)
  let ctx = Montgomery.create (Bigint.magnitude pk.P.n_squared) in
  let rand_mont () =
    Montgomery.to_mont ctx (Bigint.magnitude (Rng.below rng pk.P.n_squared))
  in
  let a = rand_mont () and b = rand_mont () in
  put "bigint.mont_mul_us"
    (1e6 *. unit_cost ~batch:200 "bigint.mont_mul_raw" (fun () ->
         Montgomery.mont_mul_raw ctx a b));
  let e = Bigint.magnitude pk.P.n in
  put "bigint.pow_ms"
    (1e3 *. unit_cost ~batch:1 "bigint.pow_raw" (fun () -> Montgomery.pow_raw ctx a e));
  (* paillier unit costs *)
  let m = Bigint.of_int 12345 in
  put "paillier.encrypt_ms"
    (1e3 *. unit_cost ~batch:1 "paillier.encrypt" (fun () -> P.encrypt pk rng m));
  put "paillier.encrypt_sk_ms"
    (1e3 *. unit_cost ~batch:1 "paillier.encrypt_sk" (fun () -> P.encrypt_sk sk rng m));
  let refill_batch = 4 in
  put "paillier.rn_refill_ms"
    (1e3 *. unit_cost ~batch:1 "paillier.pool_refill" (fun () ->
         P.pool_refill pk (P.pool_create pk) rng refill_batch)
    /. float_of_int refill_batch);
  let c = P.encrypt pk rng m and c2 = P.encrypt pk rng (Bigint.of_int 777) in
  put "paillier.decrypt_ms"
    (1e3 *. unit_cost ~batch:1 "paillier.decrypt" (fun () -> P.decrypt sk c));
  put "paillier.decrypt_crt_ms"
    (1e3 *. unit_cost ~batch:1 "paillier.decrypt_crt" (fun () -> P.decrypt_crt sk c));
  put "paillier.add_us"
    (1e6 *. unit_cost ~batch:100 "paillier.add" (fun () -> P.add pk c c2));
  let scalar = Bigint.of_string "3141592653" in
  put "paillier.scalar_mul_ms"
    (1e3 *. unit_cost ~batch:4 "paillier.scalar_mul" (fun () -> P.scalar_mul pk c scalar));
  (* core: one in-process session on the workload's spec, key and series *)
  let (server, channel, client, distance), session_s =
    timed "core.session" (fun () -> pairwise ~sk ~spec ~x ~y)
  in
  let expected =
    match (algo, band) with
    | `Dtw, None -> Distance.dtw_sq x y
    | `Dtw, Some b -> Option.get (Distance.dtw_sq_banded ~band:b x y)
    | `Dfd, _ -> Distance.dfd_sq x y
    | `Euclidean, _ -> Distance.euclidean_sq x y
  in
  if Bigint.to_int_exn distance <> expected then
    failwith
      (Printf.sprintf "probe: in-process distance %s, plaintext %d"
         (Bigint.to_string distance) expected);
  let cost = Ppst.Client.cost client in
  let cops = Ppst.Cost.client_ops cost and sops = Ppst.Server.ops server in
  let pair_values = Stats.total_values (Channel.stats channel) in
  let encryptions = cops.Ppst.Cost.encryptions + sops.Ppst.Cost.encryptions
  and decryptions = cops.Ppst.Cost.decryptions + sops.Ppst.Cost.decryptions
  and homomorphic = cops.Ppst.Cost.homomorphic + sops.Ppst.Cost.homomorphic in
  put "core.session_inproc_s" session_s;
  put "core.client_online_s" (Ppst.Cost.client_total_seconds cost);
  put "core.client_offline_s" (Ppst.Cost.client_offline_seconds cost);
  put "core.server_s" (Channel.server_seconds channel);
  let unit name = List.assoc name !out in
  let explained =
    (float_of_int cops.Ppst.Cost.encryptions *. unit "paillier.rn_refill_ms" /. 1e3)
    +. (float_of_int sops.Ppst.Cost.encryptions *. unit "paillier.encrypt_sk_ms" /. 1e3)
    +. (float_of_int decryptions *. unit "paillier.decrypt_ms" /. 1e3)
    +. (float_of_int homomorphic *. unit "paillier.add_us" /. 1e6)
  in
  put "core.residual_s" (session_s -. explained);
  (* secure min/max rounds at the session's k, with the pool pre-filled
     (as the binaries' offline phase leaves it) *)
  let k = (Ppst.Client.params client).Ppst.Params.k in
  let small v = P.encrypt pk rng (Bigint.of_int v) in
  let round name f inputs =
    let samples =
      List.init 5 (fun _ ->
          Ppst.Client.precompute_randomness client (k + Array.length inputs);
          snd (timed name (fun () -> f client inputs)))
    in
    median samples
  in
  put "core.min_round_ms"
    (1e3 *. round "client.secure_min" Ppst.Client.secure_min [| small 3; small 1; small 2 |]);
  put "core.max_round_ms"
    (1e3 *. round "client.secure_max" Ppst.Client.secure_max [| small 3; small 1 |]);
  Ppst.Client.finish client;
  (* catalog + query: the workload's catalog when it has one, else the
     server series plus one far copy, with the radius at the exact
     distance so the server series is a hit *)
  let store, radius, load_s, segments =
    match opt_opt "catalog" with
    | Some dir ->
      let store, load_s = timed "catalog.load_dir" (fun () -> Store.load_dir dir) in
      (store, int_of_string (opt "radius"), load_s, None)
    | None ->
      let _, load_s = timed "catalog.load_file" (fun () -> Store.load_file (opt "server")) in
      let store = Store.create () in
      Store.insert store ~id:"server" y;
      Store.insert store ~id:"far" (far_copy y);
      (store, expected, load_s, Some 1)
  in
  put "catalog.load_s" load_s;
  let store_max = Store.max_abs_value store in
  let qserver =
    Ppst.Server.of_store_with_key ~sk ~rng:(Rng.system ()) ~store
      ~max_value:(max 1 store_max) ()
  in
  let s1 = stage_sum "query.stage1.seconds" and s2 = stage_sum "query.stage2.seconds" in
  let qchannel = Channel.local (Ppst.Server.handle qserver) in
  let report, qclient_ops =
    span "query.within" (fun () ->
        let qclient =
          Ppst.Client.connect ~query:true ~rng:(Rng.system ()) ~series:x
            ~max_value:(max_value x)
            ~distance:(algo :> Ppst.Client.distance_kind)
            qchannel
        in
        let r = Ppst.Query.within ?segments ~spec ~radius:(Bigint.of_int radius) qclient in
        Ppst.Client.finish qclient;
        (r, Ppst.Cost.client_ops (Ppst.Client.cost qclient)))
  in
  put "query.candidates" (float_of_int report.Ppst.Query.total);
  put "query.pruned" (float_of_int report.Ppst.Query.pruned);
  put "query.evaluated" (float_of_int report.Ppst.Query.evaluated);
  put "query.stage1_s" (stage_sum "query.stage1.seconds" -. s1);
  put "query.stage2_s" (stage_sum "query.stage2.seconds" -. s2);
  (* per operation of the workload: a query on query-256, else a session *)
  let op_values, encryptions, decryptions, homomorphic =
    match opt_opt "catalog" with
    | Some _ ->
      let sops = Ppst.Server.ops qserver in
      ( Stats.total_values (Channel.stats qchannel),
        qclient_ops.Ppst.Cost.encryptions + sops.Ppst.Cost.encryptions,
        qclient_ops.Ppst.Cost.decryptions + sops.Ppst.Cost.decryptions,
        qclient_ops.Ppst.Cost.homomorphic + sops.Ppst.Cost.homomorphic )
    | None -> (pair_values, encryptions, decryptions, homomorphic)
  in
  put "core.values" (float_of_int op_values);
  put "paillier.encryptions" (float_of_int encryptions);
  put "paillier.decryptions" (float_of_int decryptions);
  put "paillier.homomorphic" (float_of_int homomorphic);
  (* transport against the running servers *)
  let host = "127.0.0.1" in
  let connect_hello port =
    let ch, dt =
      timed "transport.connect_hello" (fun () ->
          let ch = Channel.connect ~host ~port () in
          (match
             Channel.request ch
               (Message.Hello { flags = Channel.offered_flags ch; spec = None })
           with
           | Message.Welcome _ -> ()
           | _ -> failwith "probe: expected Welcome");
          ch)
    in
    Channel.close ch;
    dt
  in
  let connect_ms port = 1e3 *. median (List.init 15 (fun _ -> connect_hello port)) in
  let single = connect_ms (int_of_string (opt "single-port")) in
  let workers = connect_ms (int_of_string (opt "workers-port")) in
  put "transport.connect_ms" single;
  put "supervisor.dispatch_ms" (workers -. single);
  let health port =
    let ch = Channel.connect ~host ~port () in
    let _, dt =
      timed "transport.health" (fun () ->
          match Channel.request ch Message.Health_req with
          | Message.Health_reply _ -> ()
          | _ -> failwith "probe: expected Health_reply")
    in
    Channel.close ch;
    dt
  in
  put "transport.rtt_ms"
    (1e3 *. median (List.init 15 (fun _ -> health (int_of_string (opt "single-port")))));
  let cipher () = Rng.below rng pk.P.n_squared in
  let min_request () = Array.init (k + 2) (fun _ -> cipher ()) in
  let request, reply =
    match strategy with
    | `Wavefront ->
      ( Message.Batch_min_request [| min_request (); min_request () |],
        Message.Batch_cipher_reply [| cipher (); cipher () |] )
    | `Full -> (Message.Min_request (min_request ()), Message.Cipher_reply (cipher ()))
  in
  put "transport.codec_us"
    (1e6 *. unit_cost ~batch:20 "transport.codec" (fun () ->
         Message.decode (Message.encode (Message.Request request))));
  (* spool: one snapshot shaped like the server loop's, carrying the
     workload's typical reply and handler state *)
  let blob =
    Ppst_transport.Snapshot.encode
      {
        Ppst_transport.Snapshot.token = String.make 16 't';
        granted = 0;
        server_rounds = 1;
        last_reply = Message.encode (Message.Reply reply);
        requests = 1;
        handler_seconds = 0.0;
        server_len = Series.length y;
        catalog = None;
        admission = "";
        app = Ppst.Server.export_state server;
      }
  in
  let spool = Ppst_transport.Spool.create ~dir:(opt "spool-dir") () in
  put "spool.put_ms"
    (1e3 *. unit_cost ~min_s:0.1 ~batch:1 "spool.put" (fun () ->
         Ppst_transport.Spool.put spool ~key:"probe" blob));
  Ppst_transport.Spool.delete spool ~key:"probe";
  write_spans (opt "spans");
  let fields =
    List.rev_map (fun (name, v) -> Printf.sprintf "%S: %.9g" name v) !out
  in
  print_endline ("{" ^ String.concat ", " fields ^ "}")

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "expected"; algo; m; n; d; k ] ->
    let algo = match algo_of_string algo with `Dtw -> `Dtw | `Dfd -> `Dfd | `Euclidean -> failwith "probe: expected needs dtw or dfd" in
    let params = Ppst.Params.make ~k:(int_of_string k) () in
    print_int
      (Ppst.Protocol.expected_values_transferred ~params ~m:(int_of_string m)
         ~n:(int_of_string n) ~d:(int_of_string d) algo);
    print_newline ()
  | [ "distance"; algo; band; xf; yf ] ->
    let x = Csv.load xf and y = Csv.load yf in
    let band = int_of_string band in
    let d =
      match algo_of_string algo with
      | `Dtw when band >= 0 -> Distance.dtw_sq_banded ~band x y
      | `Dtw -> Some (Distance.dtw_sq x y)
      | `Dfd -> Some (Distance.dfd_sq x y)
      | `Euclidean -> Some (Distance.euclidean_sq x y)
    in
    print_endline (match d with Some d -> string_of_int d | None -> "none")
  | "layers" :: args ->
    let opt, opt_opt = options args in
    layers opt opt_opt
  | _ ->
    prerr_endline "usage: probe (expected ALGO M N D K | distance ALGO BAND X Y | layers --OPT V ...)";
    exit 2
