type task = unit -> unit

exception Transient of string

exception Fault_exhausted of { site : string; attempts : int }

type fault_hook = label:string -> index:int -> attempt:int -> unit

type t = {
  size : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  (* Fault model: an injection hook consulted before every task attempt,
     and a retry policy for tasks that die with {!Transient}. *)
  mutable fault_hook : fault_hook option;
  mutable max_attempts : int;
  mutable backoff_ms : float;
  mutable backoff_cap_ms : float;
  retries : int Atomic.t;
  (* Ambient cancellation: checked at every task (= chunk) boundary. *)
  mutable cancel : Cancel.t option;
}

let worker_loop t () =
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.stop then begin
        Mutex.unlock t.mutex;
        None
      end
      else if Queue.is_empty t.queue then begin
        Condition.wait t.nonempty t.mutex;
        wait ()
      end
      else begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        Some task
      end
    in
    match wait () with
    | None -> ()
    | Some task ->
        (try task () with _ -> () (* exceptions surfaced via the latch *));
        next ()
  in
  next ()

let create ?domains () =
  let size =
    match domains with
    | Some n -> max 1 n
    | None -> (
        match
          Option.bind (Sys.getenv_opt "GRAQL_DOMAINS") int_of_string_opt
        with
        | Some n when n >= 1 -> n
        | Some _ | None -> min 8 (Domain.recommended_domain_count ()))
  in
  let t =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      stop = false;
      workers = [];
      fault_hook = None;
      max_attempts = 4;
      backoff_ms = 0.25;
      backoff_cap_ms = 20.0;
      retries = Atomic.make 0;
      cancel = None;
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  p

(* ------------------------------------------------------------------ *)
(* Fault / cancellation configuration                                  *)

let set_fault_hook t h = t.fault_hook <- h

let set_retry ?attempts ?backoff_ms ?backoff_cap_ms t =
  (match attempts with Some a -> t.max_attempts <- max 1 a | None -> ());
  (match backoff_ms with Some b -> t.backoff_ms <- Float.max 0.0 b | None -> ());
  match backoff_cap_ms with
  | Some c -> t.backoff_cap_ms <- Float.max 0.0 c
  | None -> ()

let fault_retries t = Atomic.get t.retries
let set_cancel t c = t.cancel <- c
let cancel_token t = t.cancel

(* Work labels: an ambient, per-domain description of what the submitted
   tasks belong to ("stmt:3", "select:Offers"). Captured at submission
   time, so a worker stealing the task still attributes faults to the
   submitting context. *)
let label_key = Domain.DLS.new_key (fun () -> "")

let current_label () = Domain.DLS.get label_key

let with_label label f =
  let old = Domain.DLS.get label_key in
  Domain.DLS.set label_key label;
  Fun.protect ~finally:(fun () -> Domain.DLS.set label_key old) f

let check_cancel t = match t.cancel with Some c -> Cancel.check c | None -> ()

(* Scheduler metrics. [sched.*] counters depend on how work is chunked
   and scheduled, so they legitimately vary with the domain count. *)
let m_tasks = Graql_obs.Metrics.counter "sched.tasks"
let m_retries = Graql_obs.Metrics.counter "sched.retries"
let m_exhausted = Graql_obs.Metrics.counter "sched.fault_exhausted"
let h_wait_us = Graql_obs.Metrics.histogram "pool.task_wait_us"
let h_run_us = Graql_obs.Metrics.histogram "pool.task_run_us"

let backoff_delay t n =
  Float.min t.backoff_cap_ms (t.backoff_ms *. Float.pow 2.0 (float_of_int (n - 1)))

(* Dispatch retries of the task currently running on this domain: the
   injected fault strikes before the task body, so a body that wants to
   know how degraded its own dispatch was (the query log does) cannot
   see those retries in the [sched.retries] deltas it brackets — it
   reads them here instead. Saved/restored around the body so nested
   inline task execution does not clobber an outer task's count. *)
let task_retries_key = Domain.DLS.new_key (fun () -> ref 0)

let current_task_retries () = !(Domain.DLS.get task_retries_key)

(* One attempt-loop around a task: consult the fault hook, and on
   {!Transient} back off (capped exponential) and retry up to the pool's
   attempt budget. Injected faults strike *before* any task work — the
   simulated node dies on dispatch — so the task body runs exactly once,
   after a hook attempt succeeds. Pool tasks therefore need not be
   idempotent (the join/CSR scatter tasks are not). *)
let run_with_retries t ~label ~index task =
  let rec attempt n =
    match
      match t.fault_hook with
      | Some hook -> hook ~label ~index ~attempt:n
      | None -> ()
    with
    | () ->
        let r = Domain.DLS.get task_retries_key in
        let saved = !r in
        r := n - 1;
        Fun.protect ~finally:(fun () -> r := saved) task
    | exception Transient site ->
        if n >= t.max_attempts then begin
          Graql_obs.Metrics.incr m_exhausted;
          raise (Fault_exhausted { site; attempts = n })
        end
        else begin
          Atomic.incr t.retries;
          Graql_obs.Metrics.incr m_retries;
          let delay = backoff_delay t n in
          if delay > 0.0 then Unix.sleepf (delay /. 1000.0);
          check_cancel t;
          attempt (n + 1)
        end
  in
  attempt 1

(* A countdown latch that also captures the first exception raised by any
   task — with its backtrace, so the origin of a worker failure survives
   the hop back to the submitting domain. *)
type latch = {
  mutable remaining : int;
  mutable error : (exn * Printexc.raw_backtrace) option;
  lmutex : Mutex.t;
  done_ : Condition.t;
}

let run_tasks t tasks =
  let n = List.length tasks in
  if n = 0 then ()
  else begin
    let latch =
      { remaining = n; error = None; lmutex = Mutex.create (); done_ = Condition.create () }
    in
    let label = current_label () in
    let parent = Graql_obs.Trace.current_parent () in
    (* Trace context crosses the domain hop with the task: worker spans
       stitch into the submitting statement's trace, and the wait/run
       histograms carry its id as an exemplar. *)
    let trace = Graql_obs.Trace.current_trace () in
    (* A spawned domain does not inherit backtrace recording, so a worker
       records frames only when the submitter does. *)
    let record = Printexc.backtrace_status () in
    let submitted = Unix.gettimeofday () in
    let wrap index task () =
      Printexc.record_backtrace record;
      (try
         check_cancel t;
         let started = Unix.gettimeofday () in
         Graql_obs.Metrics.observe ~exemplar:trace h_wait_us
           ((started -. submitted) *. 1e6);
         Graql_obs.Metrics.incr m_tasks;
         Fun.protect
           ~finally:(fun () ->
             Graql_obs.Metrics.observe ~exemplar:trace h_run_us
               ((Unix.gettimeofday () -. started) *. 1e6))
           (fun () ->
             Graql_obs.Trace.with_context ~trace ~parent (fun () ->
                 Graql_obs.Trace.with_span ~cat:"pool"
                   ~args:[ ("label", label) ]
                   "pool.task"
                   (fun () -> run_with_retries t ~label ~index task)))
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock latch.lmutex;
         if latch.error = None then latch.error <- Some (e, bt);
         Mutex.unlock latch.lmutex);
      Mutex.lock latch.lmutex;
      latch.remaining <- latch.remaining - 1;
      if latch.remaining = 0 then Condition.broadcast latch.done_;
      Mutex.unlock latch.lmutex
    in
    let wrapped = List.mapi wrap tasks in
    (* Keep one task for the calling domain: a single-domain pool still
       makes progress, and the caller is never idle. *)
    (match wrapped with
    | [] -> ()
    | first :: rest ->
        Mutex.lock t.mutex;
        List.iter (fun task -> Queue.push task t.queue) rest;
        Condition.broadcast t.nonempty;
        Mutex.unlock t.mutex;
        first ();
        (* Help drain the queue while waiting. *)
        let rec help () =
          Mutex.lock t.mutex;
          let task = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
          Mutex.unlock t.mutex;
          match task with
          | Some task ->
              task ();
              help ()
          | None -> ()
        in
        help ());
    Mutex.lock latch.lmutex;
    while latch.remaining > 0 do
      Condition.wait latch.done_ latch.lmutex
    done;
    let err = latch.error in
    Mutex.unlock latch.lmutex;
    match err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        (* A task that cancels may run last, after the others have
           already passed their check: observe the token once more. *)
        check_cancel t
  end

let chunks ?chunk t ~lo ~hi =
  let n = hi - lo in
  if n <= 0 then []
  else
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (4 * t.size))
    in
    let rec go acc start =
      if start >= hi then List.rev acc
      else
        let stop = min hi (start + chunk) in
        go ((start, stop) :: acc) stop
    in
    go [] lo

let parallel_for_chunks t ?chunk ~lo ~hi f =
  match chunks ?chunk t ~lo ~hi with
  | [] -> ()
  | [ (clo, chi) ] ->
      check_cancel t;
      f clo chi
  | cs -> run_tasks t (List.map (fun (clo, chi) () -> f clo chi) cs)

let parallel_for t ?chunk ~lo ~hi f =
  parallel_for_chunks t ?chunk ~lo ~hi (fun clo chi ->
      for i = clo to chi - 1 do f i done)

let parallel_map_array t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f a.(0)) in
    (* Index 0 already computed above to seed the output array. *)
    parallel_for t ~lo:1 ~hi:n (fun i -> out.(i) <- f a.(i));
    out
  end

let chunk_ranges t ?chunk ~lo ~hi () = chunks ?chunk t ~lo ~hi

let parallel_reduce ?chunk t ~init ~body ~merge ~lo ~hi =
  let cs = Array.of_list (chunks ?chunk t ~lo ~hi) in
  let n = Array.length cs in
  if n = 0 then init ()
  else begin
    let results = Array.make n None in
    let tasks =
      Array.to_list
        (Array.mapi
           (fun idx (clo, chi) () ->
             let acc = init () in
             for i = clo to chi - 1 do body acc i done;
             results.(idx) <- Some acc)
           cs)
    in
    run_tasks t tasks;
    let get i = match results.(i) with Some a -> a | None -> assert false in
    let acc = ref (get 0) in
    for i = 1 to n - 1 do acc := merge !acc (get i) done;
    !acc
  end
