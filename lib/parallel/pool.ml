(* A deterministic fork-join runtime over OCaml 5 domains.

   One fixed pool of worker domains serves every parallel construct in the
   repository. The pool size is [ZKDET_DOMAINS] (total domains, including
   the calling one; 1 = fully sequential), defaulting to
   [Domain.recommended_domain_count () - 1] so one core is left for the OS
   and the main domain's bookkeeping.

   Determinism contract: every construct decomposes its index range into
   chunks whose boundaries depend only on the range (never on the pool
   size), runs chunks in any order, and combines per-chunk results in a
   fixed left-to-right order on the calling domain. Kernels built from
   exact arithmetic on canonical representations (our field elements)
   therefore produce bit-identical results at any [ZKDET_DOMAINS].

   Every construct dispatches its whole range as one batch: no element is
   computed on the caller ahead of the batch, so a 2-element map really
   runs its two elements at once and an MSM's chunks all share the pool.

   The pool is an orchestration runtime, not a general scheduler: parallel
   constructs are meant to be issued from a single orchestrating domain
   (nested calls from inside a worker run inline, sequentially, which both
   avoids deadlock and keeps the decomposition shape stable). *)

type batch = {
  mutable remaining : int;
  mutable first_exn : exn option;
}

type runtime = {
  queue : (batch * (unit -> unit)) Queue.t;
  mutex : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

(* Marks worker domains so nested constructs degrade to inline execution. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

let finish_task rt batch outcome =
  Mutex.lock rt.mutex;
  (match outcome with
  | Some e when batch.first_exn = None -> batch.first_exn <- Some e
  | _ -> ());
  batch.remaining <- batch.remaining - 1;
  if batch.remaining = 0 then Condition.broadcast rt.batch_done;
  Mutex.unlock rt.mutex

let run_task rt batch task =
  let outcome = try task (); None with e -> Some e in
  finish_task rt batch outcome

let rec worker_loop rt =
  Mutex.lock rt.mutex;
  while Queue.is_empty rt.queue && not rt.stopping do
    Condition.wait rt.work_ready rt.mutex
  done;
  if Queue.is_empty rt.queue then Mutex.unlock rt.mutex
  else begin
    let batch, task = Queue.pop rt.queue in
    Mutex.unlock rt.mutex;
    run_task rt batch task;
    worker_loop rt
  end

let spawn_runtime n_workers =
  let rt = {
    queue = Queue.create ();
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    batch_done = Condition.create ();
    stopping = false;
    workers = [||];
  } in
  rt.workers <-
    Array.init n_workers (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker_key true;
            worker_loop rt));
  rt

(* ---- global configuration ---- *)

let env_default () =
  let fallback = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "ZKDET_DOMAINS" with
  | None -> fallback
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> fallback)

let requested : int option ref = ref None
let runtime : runtime option ref = ref None

let num_domains () =
  match !requested with
  | Some n -> n
  | None ->
    let n = env_default () in
    requested := Some n;
    n

let shutdown () =
  match !runtime with
  | None -> ()
  | Some rt ->
    Mutex.lock rt.mutex;
    rt.stopping <- true;
    Condition.broadcast rt.work_ready;
    Mutex.unlock rt.mutex;
    Array.iter Domain.join rt.workers;
    runtime := None

let set_num_domains n =
  if n < 1 then invalid_arg "Pool.set_num_domains: need at least 1 domain";
  if n <> num_domains () then begin
    shutdown ();
    requested := Some n
  end

let with_domains n f =
  let saved = num_domains () in
  set_num_domains n;
  Fun.protect ~finally:(fun () -> set_num_domains saved) f

let get_runtime () =
  match !runtime with
  | Some rt -> rt
  | None ->
    let rt = spawn_runtime (num_domains () - 1) in
    runtime := Some rt;
    rt

let sequential () = num_domains () = 1 || Domain.DLS.get in_worker_key

(* Run a batch of tasks: the caller executes the first task itself, then
   helps drain the queue (which may contain tasks of an enclosing batch
   when constructs nest on the orchestrating domain), then blocks until
   the batch completes. The first exception raised by any task is
   re-raised here; the pool stays usable. *)
let run_batch rt (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  let batch = { remaining = n; first_exn = None } in
  Mutex.lock rt.mutex;
  for i = 1 to n - 1 do
    Queue.push (batch, tasks.(i)) rt.queue
  done;
  if n > 1 then Condition.broadcast rt.work_ready;
  Mutex.unlock rt.mutex;
  run_task rt batch tasks.(0);
  Mutex.lock rt.mutex;
  let rec help () =
    if batch.remaining > 0 then
      if not (Queue.is_empty rt.queue) then begin
        let b, t = Queue.pop rt.queue in
        Mutex.unlock rt.mutex;
        run_task rt b t;
        Mutex.lock rt.mutex;
        help ()
      end
      else begin
        Condition.wait rt.batch_done rt.mutex;
        help ()
      end
  in
  help ();
  let e = batch.first_exn in
  Mutex.unlock rt.mutex;
  match e with Some e -> raise e | None -> ()

(* ---- parallel constructs ---- *)

(* Chunk boundaries depend only on the range and [chunks], never on the
   pool size: chunk c of k covers [lo + c*n/k, lo + (c+1)*n/k). *)
let default_chunks = 32

(* Split [lo, hi) into [k = min chunks n] chunks and run [run_chunk c ~lo
   ~hi] for every chunk index c, all of them dispatched as one batch (none
   runs ahead of it on the caller). Counted on the calling domain before
   dispatch: k depends only on the range, so totals match at any pool
   size. Returns k (0 for an empty range). *)
let run_chunks ~chunks lo hi (run_chunk : int -> lo:int -> hi:int -> unit) =
  let n = hi - lo in
  if n <= 0 then 0
  else begin
    let k = max 1 (min chunks n) in
    Zkdet_telemetry.Telemetry.count "pool.parallel_calls" 1;
    Zkdet_telemetry.Telemetry.count "pool.chunks" k;
    let run c = run_chunk c ~lo:(lo + (c * n / k)) ~hi:(lo + ((c + 1) * n / k)) in
    if sequential () || k = 1 then
      for c = 0 to k - 1 do
        run c
      done
    else run_batch (get_runtime ()) (Array.init k (fun c () -> run c));
    k
  end

let parallel_for_chunks ?(chunks = default_chunks) lo hi body =
  ignore (run_chunks ~chunks lo hi (fun _ ~lo ~hi -> body ~lo ~hi))

let parallel_for ?chunks lo hi f =
  parallel_for_chunks ?chunks lo hi (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        f i
      done)

(* Each chunk fills its own array; the arrays are concatenated in chunk
   order. Elements stay unboxed (a float result makes float arrays) and
   no element is computed ahead of the batch. *)
let parallel_init n f =
  let parts = Array.make (max 1 (min default_chunks n)) [||] in
  ignore
    (run_chunks ~chunks:default_chunks 0 n (fun c ~lo ~hi ->
         parts.(c) <- Array.init (hi - lo) (fun j -> f (lo + j))));
  Array.concat (Array.to_list parts)

let parallel_map_array f a = parallel_init (Array.length a) (fun i -> f a.(i))

let parallel_reduce ?(chunks = default_chunks) ~neutral ~combine lo hi f =
  let partials = Array.make (max 1 (min chunks (hi - lo))) neutral in
  let k =
    run_chunks ~chunks lo hi (fun c ~lo ~hi ->
        let acc = ref neutral in
        for i = lo to hi - 1 do
          acc := combine !acc (f i)
        done;
        partials.(c) <- !acc)
  in
  if k = 0 then neutral
  else Array.fold_left combine neutral partials
