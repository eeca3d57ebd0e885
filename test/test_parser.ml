(** Parser tests: the paper's running queries (adapted to the mini HR
    schema) must parse, and parse → optimize → execute must agree with
    the reference evaluator. *)

open Sqlir
module A = Ast
open Tsupport

let db = lazy (hr_db ())

let parse sql =
  let db = Lazy.force db in
  Sqlparse.Parser.parse_exn db.Storage.Db.cat sql

let check_sql ?msg sql =
  let db = Lazy.force db in
  let q = parse sql in
  ignore (check_against_ref ?msg db q)

let test_simple () =
  check_sql "SELECT e.name, e.salary FROM employees e WHERE e.salary > 6000"

let test_unqualified_and_star () =
  let q1 = parse "SELECT name FROM employees" in
  let q2 = parse "SELECT e.name FROM employees e" in
  Alcotest.(check int) "same select arity"
    (List.length (A.query_select_names q1))
    (List.length (A.query_select_names q2));
  let qs = parse "SELECT * FROM departments" in
  Alcotest.(check (list string)) "star expansion"
    [ "dept_id"; "dept_name"; "loc_id" ]
    (A.query_select_names qs);
  let qs2 = parse "SELECT d.* FROM departments d, locations l" in
  Alcotest.(check int) "alias star" 3 (List.length (A.query_select_names qs2))

let test_join_syntax () =
  check_sql
    "SELECT e.name, d.dept_name FROM employees e JOIN departments d ON \
     e.dept_id = d.dept_id WHERE e.salary > 5000";
  check_sql
    "SELECT e.name, d.dept_name FROM employees e LEFT OUTER JOIN departments \
     d ON e.dept_id = d.dept_id"

let test_q1_paper () =
  (* the paper's Q1, adapted: employees above department-average salary
     in US departments, with job history after a date *)
  check_sql ~msg:"paper Q1"
    "SELECT e1.name, j.job_id FROM employees e1, job_history j WHERE \
     e1.emp_id = j.emp_id AND j.start_date > DATE 10400 AND e1.salary > \
     (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
     AND e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
     WHERE d.loc_id = l.loc_id AND l.country_id = 'US')"

let test_q2_exists () =
  check_sql ~msg:"paper Q2"
    "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT e.emp_id \
     FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 7000)"

let test_q4_fk_join () =
  check_sql ~msg:"paper Q4"
    "SELECT e.name, e.salary FROM employees e, departments d WHERE e.dept_id \
     = d.dept_id"

let test_q12_distinct_view () =
  (* paper Q12 shape: distinct view over a join, joined to outer tables *)
  check_sql ~msg:"paper Q12"
    "SELECT e1.name, v.dept_id FROM employees e1, (SELECT DISTINCT d.dept_id \
     FROM departments d, locations l WHERE d.loc_id = l.loc_id AND \
     l.country_id IN ('UK', 'US')) v WHERE e1.dept_id = v.dept_id AND \
     e1.salary > 4000"

let test_q14_union_all_join () =
  (* paper Q14 shape: UNION ALL branches sharing join tables *)
  check_sql ~msg:"paper Q14"
    "SELECT e.name, d.dept_name, l.city FROM employees e, departments d, \
     locations l WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND \
     e.salary > 6500 UNION ALL SELECT e.name, d.dept_name, l.city FROM \
     employees e, departments d, locations l WHERE e.dept_id = d.dept_id AND \
     d.loc_id = l.loc_id AND e.salary < 3400"

let test_rownum () =
  let db = Lazy.force db in
  let q =
    parse
      "SELECT e.name FROM employees e WHERE e.salary > 3000 AND ROWNUM <= 7 \
       ORDER BY e.salary"
  in
  (match q with
  | A.Block b -> Alcotest.(check (option int)) "limit" (Some 7) b.A.limit
  | _ -> Alcotest.fail "expected block");
  let opt = Planner.Optimizer.create db.Storage.Db.cat in
  let ann = Planner.Optimizer.optimize opt q in
  let _, rows, _ = Exec.Executor.execute db ann.Planner.Annotation.an_plan in
  Alcotest.(check int) "7 rows" 7 (List.length rows)

let test_not_in_any_all () =
  check_sql
    "SELECT d.dept_name FROM departments d WHERE d.dept_id NOT IN (SELECT \
     e.dept_id FROM employees e WHERE e.dept_id IS NOT NULL AND e.salary > \
     7900)";
  check_sql
    "SELECT d.dept_name FROM departments d WHERE d.dept_id < ALL (SELECT \
     e.job_id * 10 FROM employees e)";
  check_sql
    "SELECT d.dept_name FROM departments d WHERE d.dept_id >= ANY (SELECT \
     e.job_id + 9 FROM employees e)"

let test_group_by_having () =
  check_sql
    "SELECT e.dept_id, COUNT(*) cnt, AVG(e.salary) avg_sal FROM employees e \
     GROUP BY e.dept_id HAVING COUNT(*) > 4"

let test_window_function () =
  check_sql
    "SELECT j.emp_id, COUNT(*) OVER (PARTITION BY j.dept_id ORDER BY \
     j.start_date) rc FROM job_history j"

let test_setops () =
  check_sql
    "SELECT e.dept_id FROM employees e MINUS SELECT d.dept_id FROM \
     departments d WHERE d.dept_id < 13";
  check_sql
    "SELECT e.dept_id FROM employees e INTERSECT SELECT d.dept_id FROM \
     departments d";
  check_sql
    "SELECT e.dept_id FROM employees e UNION SELECT d.dept_id FROM \
     departments d"

let test_case_in_list_between () =
  check_sql
    "SELECT e.name, CASE WHEN e.salary > 6000 THEN 'high' ELSE 'low' END \
     band FROM employees e WHERE e.job_id IN (1, 3, 5) AND e.salary BETWEEN \
     3000 AND 7500"

let test_duplicate_alias_renamed () =
  (* the same alias e in outer and inner blocks must not collide *)
  let q =
    parse
      "SELECT e.name FROM employees e WHERE EXISTS (SELECT 1 one FROM \
       employees e WHERE e.salary > 7900)"
  in
  let aliases = Walk.all_aliases_query Walk.Sset.empty q in
  Alcotest.(check int) "two distinct aliases" 2 (Walk.Sset.cardinal aliases);
  (* NB: inner e shadows outer e, so the subquery is uncorrelated here —
     exactly like SQL scoping *)
  ignore (check_against_ref (Lazy.force db) q)

let test_multi_item_in () =
  check_sql
    "SELECT e.name FROM employees e WHERE (e.dept_id, e.job_id) IN (SELECT \
     j.dept_id, j.job_id FROM job_history j)"

let test_parse_errors () =
  let db = Lazy.force db in
  let bad sql =
    match Sqlparse.Parser.parse db.Storage.Db.cat sql with
    | Ok _ -> Alcotest.failf "expected parse error for %s" sql
    | Error _ -> ()
  in
  bad "SELECT FROM employees";
  bad "SELECT e.name FROM";
  bad "SELECT e.name FROM no_such_table e";
  bad "SELECT e.no_such_col FROM employees e";
  bad "SELECT e.name FROM employees e WHERE";
  bad "SELECT e.name FROM employees e WHERE e.salary >";
  bad "SELECT e.name FROM employees e ORDER";
  bad "SELECT e.name employees e"

let test_out_of_range_literals () =
  let db = Lazy.force db in
  List.iter
    (fun sql ->
      match Sqlparse.Parser.parse db.Storage.Db.cat sql with
      | Ok _ -> Alcotest.failf "expected parse error for %s" sql
      | Error _ -> ())
    [
      "SELECT e.name FROM employees e WHERE e.emp_id = 99999999999999999999";
      "SELECT e.name FROM employees e WHERE e.emp_id = :99999999999999999999";
    ]

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

module L = Sqlparse.Lexer

let lex_one s =
  match L.tokenize s with
  | [ (t, 0); (L.EOF, _) ] -> t
  | _ -> Alcotest.failf "%S does not lex to one token" s

let test_keywords_any_case () =
  let mixed k =
    String.mapi (fun i c -> if i mod 2 = 0 then c else Char.lowercase_ascii c) k
  in
  List.iter
    (fun k ->
      List.iter
        (fun spelling ->
          match lex_one spelling with
          | L.KW k' when String.equal k k' -> ()
          | t -> Alcotest.failf "%S lexed to %s, not %s" spelling (L.token_str t) k)
        [ String.lowercase_ascii k; k; mixed k ];
      Alcotest.(check bool) (k ^ " is a keyword") true (L.is_keyword (mixed k)))
    L.keywords

let test_keyword_lookalikes () =
  List.iter
    (fun w ->
      match lex_one w with
      | L.IDENT s ->
          Alcotest.(check string) w (String.lowercase_ascii w) s;
          Alcotest.(check bool) (w ^ " is not a keyword") false (L.is_keyword w)
      | t -> Alcotest.failf "%S lexed to %s, not an identifier" w (L.token_str t))
    [ "selected"; "order_no"; "date_c"; "_from"; "in$1"; "SELECTED"; "Order_No" ]

let test_operators () =
  Alcotest.(check (list string)) "operators"
    [ "<>"; "<>"; "<="; ">="; "<"; ">"; "="; "-"; ":3"; "<eof>" ]
    (List.map
       (fun (t, _) -> L.token_str t)
       (L.tokenize "<> != <= >= < > = - :3 -- a comment"))

(* Random streams over the token alphabet, some of them close to valid
   SQL: parsing must answer Ok or Error, never raise. *)
let fuzz_parse =
  let open QCheck.Gen in
  let random_case =
    map2
      (fun k bits ->
        String.mapi
          (fun i c ->
            if (bits lsr (i mod 30)) land 1 = 1 then Char.lowercase_ascii c else c)
          k)
      (oneofl L.keywords) (int_bound (1 lsl 30 - 1))
  in
  let ident =
    oneofl
      [
        "e"; "d"; "l"; "j"; "employees"; "departments"; "locations";
        "job_history"; "name"; "salary"; "dept_id"; "emp_id"; "job_id";
        "loc_id"; "city"; "country_id"; "start_date"; "dept_name"; "x";
        "_a$1"; "selected"; "e.salary"; "d.dept_id"; "e.dept_id";
      ]
  in
  let literal =
    oneof
      [
        map string_of_int small_nat;
        oneofl
          [ "3.25"; "'US'"; "'it''s'"; "99999999999999999999"; "0"; "'"; "1." ];
      ]
  in
  let operator =
    oneofl
      [
        "("; ")"; ","; "."; "*"; "+"; "-"; "/"; "="; "<>"; "!="; "<"; "<=";
        ">"; ">="; "!"; "?";
      ]
  in
  let bind =
    oneof
      [
        map (fun n -> ":" ^ string_of_int n) (int_bound 4);
        oneofl [ ":"; ":99999999999999999999" ];
      ]
  in
  let clause =
    oneofl
      [
        "SELECT e.name FROM employees e"; "FROM employees e";
        "JOIN departments d ON e.dept_id = d.dept_id"; "WHERE";
        "LEFT OUTER JOIN locations l ON"; "GROUP BY"; "ORDER BY";
        "(SELECT d.dept_id FROM departments d)"; "COUNT(*)"; "ROWNUM <=";
      ]
  in
  let fragment =
    frequency
      [
        (3, random_case); (3, ident); (2, literal); (3, operator); (1, bind);
        (2, clause);
      ]
  in
  let stmt =
    map2
      (fun lead frags -> String.concat " " (lead @ frags))
      (oneofl [ []; [ "SELECT" ]; [ "SELECT e.name FROM employees e WHERE" ] ])
      (list_size (int_range 0 30) fragment)
  in
  QCheck.Test.make ~count:3000 ~name:"parse returns Ok or Error, never raises"
    (QCheck.make ~print:Fun.id stmt)
    (fun sql ->
      let db = Lazy.force db in
      match Sqlparse.Parser.parse db.Storage.Db.cat sql with
      | Ok _ | Error _ -> true)

(* Two domains parsing different JOIN … ON statements at once must each
   get the tree a lone parse gives: no parse state is shared. *)
let test_concurrent_join_on () =
  let db = Lazy.force db in
  let cat = db.Storage.Db.cat in
  let sqls =
    [|
      "SELECT e.name, d.dept_name, l.city FROM employees e JOIN departments \
       d ON e.dept_id = d.dept_id JOIN locations l ON d.loc_id = l.loc_id \
       JOIN job_history j ON j.emp_id = e.emp_id WHERE e.salary > 5000";
      "SELECT d.dept_name, l.city FROM departments d INNER JOIN locations l \
       ON d.loc_id = l.loc_id AND l.country_id = 'US' WHERE d.dept_id > 10 \
       AND EXISTS (SELECT 1 one FROM employees e JOIN job_history j ON \
       j.emp_id = e.emp_id WHERE e.dept_id = d.dept_id)";
    |]
  in
  let expected = Array.map (Sqlparse.Parser.parse_exn cat) sqls in
  let rounds = 20_000 in
  let worker i () =
    let bad = ref 0 in
    for _ = 1 to rounds do
      let q = Sqlparse.Parser.parse_exn cat sqls.(i) in
      if not (Fingerprint.equal ~mode:Fingerprint.With_peeks q expected.(i))
      then incr bad
    done;
    !bad
  in
  let ds = Array.init 2 (fun i -> Domain.spawn (worker i)) in
  Array.iteri
    (fun i d ->
      Alcotest.(check int)
        (Printf.sprintf "statement %d trees differing from a lone parse" i)
        0 (Domain.join d))
    ds

let test_pretty_print_reparse () =
  (* print ∘ parse is stable: the printed tree re-parses to an
     equivalent query (same reference results) *)
  let db = Lazy.force db in
  let sqls =
    [
      "SELECT e.name, e.salary FROM employees e WHERE e.salary > 6000";
      "SELECT e.dept_id, COUNT(*) cnt FROM employees e GROUP BY e.dept_id";
      "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT 1 one FROM \
       employees e WHERE e.dept_id = d.dept_id)";
    ]
  in
  List.iter
    (fun sql ->
      let q = parse sql in
      let r1 = Refeval.eval db q in
      let printed = Pp.query_to_string q in
      let q2 = Sqlparse.Parser.parse_exn db.Storage.Db.cat printed in
      let r2 = Refeval.eval db q2 in
      Alcotest.(check bool)
        (Printf.sprintf "round trip: %s" sql)
        true
        (Refeval.rows_equal r1 r2))
    sqls

(* Printed SQL re-parses to the same query: every generator class, the
   generic fingerprint as the judge (block names and bind peeks are
   not part of the text). *)
let prop_print_reparse =
  let module QG = Workload.Query_gen in
  let gdb, schema =
    Workload.Schema_gen.build ~families:2 ~sample_frac:0.5 ~row_scale:0.04
      ~seed:7 ()
  in
  let classes =
    QG.
      [
        C_spj; C_exists; C_not_exists; C_in_multi; C_not_in; C_agg_subq;
        C_gb_view; C_distinct_view; C_union_factor; C_gbp; C_or; C_setop;
        C_pullup;
      ]
  in
  QCheck.Test.make ~count:400 ~name:"parse (pp q) = q for every generator class"
    (QCheck.make
       ~print:(fun (cls, seed) ->
         Printf.sprintf "%s (seed %d)" (QG.class_name cls) seed)
       QCheck.Gen.(pair (oneofl classes) (int_bound 100000)))
    (fun (cls, seed) ->
      let q = QG.generate (QG.create ~seed schema) cls in
      let sql = Pp.query_to_string q in
      match Sqlparse.Parser.parse gdb.Storage.Db.cat sql with
      | Error e -> QCheck.Test.fail_reportf "%s\ndoes not parse: %s" sql e
      | Ok q2 ->
          Fingerprint.equal ~mode:Fingerprint.Generic q2 q
          || QCheck.Test.fail_reportf "%s\nre-parses as\n%s" sql
               (Pp.query_to_string q2))

let () =
  Alcotest.run "parser"
    [
      ( "basics",
        [
          Alcotest.test_case "simple" `Quick test_simple;
          Alcotest.test_case "unqualified + star" `Quick test_unqualified_and_star;
          Alcotest.test_case "join syntax" `Quick test_join_syntax;
          Alcotest.test_case "rownum" `Quick test_rownum;
          Alcotest.test_case "case/in/between" `Quick test_case_in_list_between;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "out-of-range literals" `Quick
            test_out_of_range_literals;
          Alcotest.test_case "concurrent JOIN ON" `Quick test_concurrent_join_on;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "keywords in any case" `Quick test_keywords_any_case;
          Alcotest.test_case "keyword lookalikes" `Quick test_keyword_lookalikes;
          Alcotest.test_case "operators" `Quick test_operators;
          QCheck_alcotest.to_alcotest fuzz_parse;
        ] );
      ( "paper queries",
        [
          Alcotest.test_case "Q1" `Quick test_q1_paper;
          Alcotest.test_case "Q2" `Quick test_q2_exists;
          Alcotest.test_case "Q4" `Quick test_q4_fk_join;
          Alcotest.test_case "Q12" `Quick test_q12_distinct_view;
          Alcotest.test_case "Q14" `Quick test_q14_union_all_join;
        ] );
      ( "subqueries and setops",
        [
          Alcotest.test_case "NOT IN / ANY / ALL" `Quick test_not_in_any_all;
          Alcotest.test_case "multi-item IN" `Quick test_multi_item_in;
          Alcotest.test_case "setops" `Quick test_setops;
          Alcotest.test_case "duplicate alias" `Quick test_duplicate_alias_renamed;
        ] );
      ( "features",
        [
          Alcotest.test_case "group by having" `Quick test_group_by_having;
          Alcotest.test_case "window" `Quick test_window_function;
          Alcotest.test_case "print-reparse" `Quick test_pretty_print_reparse;
          QCheck_alcotest.to_alcotest prop_print_reparse;
        ] );
    ]
