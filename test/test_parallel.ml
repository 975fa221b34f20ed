module Pool = Graql_parallel.Domain_pool
module Cancel = Graql_parallel.Cancel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ?domains f =
  let pool = Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_run_tasks () =
  with_pool (fun pool ->
      let results = Array.make 20 0 in
      Pool.run_tasks pool
        (List.init 20 (fun i () -> results.(i) <- i * i));
      check "all tasks ran" true
        (Array.to_list results = List.init 20 (fun i -> i * i)))

let test_run_tasks_empty () =
  with_pool (fun pool -> Pool.run_tasks pool [])

let test_exception_propagates () =
  with_pool (fun pool ->
      match
        Pool.run_tasks pool
          [ (fun () -> ()); (fun () -> failwith "boom"); (fun () -> ()) ]
      with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_parallel_for () =
  with_pool (fun pool ->
      let out = Array.make 1000 0 in
      Pool.parallel_for pool ~lo:0 ~hi:1000 (fun i -> out.(i) <- i + 1);
      check_int "sum" (1000 * 1001 / 2) (Array.fold_left ( + ) 0 out))

let test_parallel_for_empty_range () =
  with_pool (fun pool ->
      let hit = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> hit := true);
      check "no iterations" false !hit)

let test_parallel_map () =
  with_pool (fun pool ->
      let a = Array.init 500 Fun.id in
      let b = Pool.parallel_map_array pool (fun x -> x * 2) a in
      check "mapped" true (b = Array.map (fun x -> x * 2) a))

let test_parallel_reduce_deterministic () =
  with_pool (fun pool ->
      (* Order-sensitive merge: string concatenation. Deterministic because
         chunk results merge in chunk order. *)
      let run () =
        Pool.parallel_reduce pool
          ~init:(fun () -> Buffer.create 16)
          ~body:(fun buf i -> Buffer.add_string buf (string_of_int i))
          ~merge:(fun a b ->
            Buffer.add_buffer a b;
            a)
          ~lo:0 ~hi:200
      in
      let expect = String.concat "" (List.init 200 string_of_int) in
      for _ = 1 to 5 do
        Alcotest.(check string) "stable across runs" expect (Buffer.contents (run ()))
      done)

let test_single_domain_pool () =
  with_pool ~domains:1 (fun pool ->
      check_int "size" 1 (Pool.size pool);
      let acc = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> acc := !acc + i);
      check_int "sequential fallback" 4950 !acc)

let test_nested_run_tasks () =
  (* Statement-level parallelism nests operation-level parallelism; the
     help-drain design must not deadlock. *)
  with_pool ~domains:4 (fun pool ->
      let results = Array.make 4 0 in
      Pool.run_tasks pool
        (List.init 4 (fun i () ->
             let acc = ref 0 in
             Pool.parallel_for pool ~lo:0 ~hi:100 (fun j -> acc := !acc + j);
             (* parallel_for chunks may interleave on this counter; use
                reduce for the checked value instead. *)
             let v =
               Pool.parallel_reduce pool
                 ~init:(fun () -> ref 0)
                 ~body:(fun a j -> a := !a + j)
                 ~merge:(fun a b ->
                   a := !a + !b;
                   a)
                 ~lo:0 ~hi:100
             in
             results.(i) <- !v));
      check "nested results" true (Array.for_all (fun v -> v = 4950) results))

let test_parallel_for_chunks_cover () =
  with_pool (fun pool ->
      let seen = Array.make 777 false in
      Pool.parallel_for_chunks pool ~lo:0 ~hi:777 (fun lo hi ->
          for i = lo to hi - 1 do
            seen.(i) <- true
          done);
      check "full coverage" true (Array.for_all Fun.id seen))

(* ------------------------------------------------------------------ *)
(* Worker exceptions keep their origin backtrace                       *)

(* The raise must be neither inlined nor in tail position, or the frame
   disappears from the trace before the latch ever sees it. *)
let[@inline never] deep_raiser () =
  if failwith "deep boom" then () else ()

(* Whether the raising task ran on the worker or on the helping caller
   is up to the scheduler, so the run is repeated until both have most
   likely happened; the frame must survive every time. *)
let test_worker_backtrace_preserved () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  with_pool ~domains:2 (fun pool ->
      for round = 1 to 50 do
        match
          Pool.run_tasks pool
            [ (fun () -> ()); (fun () -> deep_raiser ()); (fun () -> ()) ]
        with
        | () -> Alcotest.fail "expected exception"
        | exception Failure msg ->
            (* raise_with_backtrace carried the worker-side trace across
               the latch: the raising frame is still visible here. Read it
               before anything else runs and clobbers the buffer. *)
            let bt = Printexc.get_backtrace () in
            Alcotest.(check string) "message" "deep boom" msg;
            check
              (Printf.sprintf "origin frame survives the hop (round %d)" round)
              true
              (let needle = "deep_raiser" in
               let nl = String.length needle and hl = String.length bt in
               let rec go i =
                 i + nl <= hl && (String.sub bt i nl = needle || go (i + 1))
               in
               go 0)
      done)

(* ------------------------------------------------------------------ *)
(* Fault hook: retry with backoff, then exhaustion                     *)

let test_fault_hook_retries_then_succeeds () =
  with_pool ~domains:2 (fun pool ->
      Pool.set_retry ~backoff_ms:0.0 pool;
      let hook ~label:_ ~index ~attempt =
        if index = 1 && attempt <= 2 then raise (Pool.Transient "site1")
      in
      Pool.set_fault_hook pool (Some hook);
      let ran = Array.make 3 0 in
      Pool.run_tasks pool
        (List.init 3 (fun i () -> ran.(i) <- ran.(i) + 1));
      (* Faults strike before the body: despite two failed attempts, every
         task body ran exactly once. *)
      check "bodies ran exactly once" true (ran = [| 1; 1; 1 |]);
      check_int "two retries recorded" 2 (Pool.fault_retries pool))

let test_fault_hook_exhaustion () =
  with_pool ~domains:2 (fun pool ->
      Pool.set_retry ~attempts:3 ~backoff_ms:0.0 pool;
      Pool.set_fault_hook pool
        (Some (fun ~label:_ ~index:_ ~attempt:_ -> raise (Pool.Transient "dead")));
      (match Pool.run_tasks pool [ (fun () -> ()) ] with
      | () -> Alcotest.fail "expected exhaustion"
      | exception Pool.Fault_exhausted { site; attempts } ->
          Alcotest.(check string) "site" "dead" site;
          check_int "attempt budget" 3 attempts);
      Pool.set_fault_hook pool None)

let test_fault_hook_sees_labels () =
  with_pool ~domains:1 (fun pool ->
      let seen = ref [] in
      Pool.set_fault_hook pool
        (Some (fun ~label ~index ~attempt:_ -> seen := (label, index) :: !seen));
      Pool.with_label "phase-a" (fun () ->
          Pool.run_tasks pool [ (fun () -> ()); (fun () -> ()) ]);
      check "labels attributed" true
        (List.sort compare !seen = [ ("phase-a", 0); ("phase-a", 1) ]))

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                            *)

(* Task 0 cancels on the calling domain after the other 63 are queued,
   and the worker may drain all of them first. Every other round forces
   that order (task 0 waits, for up to a second, until the rest have
   run), so a pool that checks the token only when a task starts fails
   here every time rather than once in a while. *)
let test_cancel_stops_chunks () =
  with_pool ~domains:2 (fun pool ->
      for round = 1 to 100 do
        let token = Cancel.create () in
        Pool.set_cancel pool (Some token);
        let done_count = Atomic.make 0 in
        let cancel_last () =
          let give_up = Unix.gettimeofday () +. 1.0 in
          while Atomic.get done_count < 63 && Unix.gettimeofday () < give_up do
            Unix.sleepf 0.0001
          done
        in
        (match
           Pool.run_tasks pool
             (List.init 64 (fun i () ->
                  if i = 0 then begin
                    if round mod 2 = 0 then cancel_last ();
                    Cancel.cancel token
                  end
                  else Atomic.incr done_count))
         with
        | () -> Alcotest.failf "round %d: expected cancellation" round
        | exception Cancel.Cancelled _ -> ())
      done;
      Pool.set_cancel pool None)

(* A 1-domain pool has no workers: the caller runs the tasks in order,
   so once task 0 cancels, every queued task must be skipped before its
   body runs. *)
let test_cancel_skips_queued () =
  with_pool ~domains:1 (fun pool ->
      let token = Cancel.create () in
      Pool.set_cancel pool (Some token);
      let done_count = Atomic.make 0 in
      (match
         Pool.run_tasks pool
           (List.init 64 (fun i () ->
                if i = 0 then Cancel.cancel token
                else Atomic.incr done_count))
       with
      | () -> Alcotest.fail "expected cancellation"
      | exception Cancel.Cancelled _ -> ());
      check_int "no queued task ran" 0 (Atomic.get done_count);
      Pool.set_cancel pool None)

let test_deadline_token_expires () =
  let token = Cancel.with_deadline_ms 10 in
  check "fresh token live" false (Cancel.is_cancelled token);
  Unix.sleepf 0.03;
  check "expired after deadline" true (Cancel.is_cancelled token);
  (match Cancel.check token with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Cancel.Cancelled budget -> check_int "budget carried" 10 budget);
  check "invalid budget rejected" true
    (match Cancel.with_deadline_ms 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "run_tasks" `Quick test_run_tasks;
          Alcotest.test_case "run_tasks empty" `Quick test_run_tasks_empty;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "reduce deterministic" `Quick
            test_parallel_reduce_deterministic;
          Alcotest.test_case "single-domain pool" `Quick test_single_domain_pool;
          Alcotest.test_case "nested tasks no deadlock" `Quick test_nested_run_tasks;
          Alcotest.test_case "chunk coverage" `Quick test_parallel_for_chunks_cover;
          Alcotest.test_case "worker backtrace preserved" `Quick
            test_worker_backtrace_preserved;
        ] );
      ( "faults",
        [
          Alcotest.test_case "retry then succeed" `Quick
            test_fault_hook_retries_then_succeeds;
          Alcotest.test_case "exhaustion" `Quick test_fault_hook_exhaustion;
          Alcotest.test_case "labels attributed" `Quick
            test_fault_hook_sees_labels;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "cancel stops chunks" `Quick
            test_cancel_stops_chunks;
          Alcotest.test_case "cancel skips queued" `Quick
            test_cancel_skips_queued;
          Alcotest.test_case "deadline token expires" `Quick
            test_deadline_token_expires;
        ] );
    ]
