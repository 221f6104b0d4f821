// A business-database scenario: a company schema with enumerations,
// functions and procedures for derived data and encapsulated updates,
// authorization with user groups, secondary indexes, and persistence
// through a checkpoint image.
//
// Build & run:  ./build/examples/company

#include <cstdio>
#include <iostream>

#include "excess/database.h"

namespace {

int g_failures = 0;

void Run(exodus::Database& db, const std::string& query,
         bool expect_error = false) {
  std::cout << "EXCESS> " << query << "\n";
  auto result = db.Execute(query);
  if (!result.ok()) {
    std::cout << (expect_error ? "denied (as intended): " : "error: ")
              << result.status().ToString() << "\n\n";
    if (!expect_error) ++g_failures;
    return;
  }
  if (expect_error) ++g_failures;
  std::cout << db.Format(*result) << "\n";
}

}  // namespace

int main() {
  exodus::Database db;

  // --- Schema -------------------------------------------------------------
  Run(db, R"(
    define enum Grade (junior, senior, principal)
    define type Department (name: char[20], floor: int4, budget: float8)
    define type Employee (
      name: char[25],
      grade: Grade,
      salary: float8,
      hired: Date,
      dept: ref Department,
      reviews: [*] float8
    )
    create Departments : {Department}
    create Employees : {Employee}
  )");

  // --- Load ---------------------------------------------------------------
  Run(db, R"(append to Departments (name = "Research", floor = 3,
                                    budget = 900000.0))");
  Run(db, R"(append to Departments (name = "Sales", floor = 1,
                                    budget = 400000.0))");
  const char* staff[][4] = {
      {"ann", "principal", "98000.0", "Date(\"4/1/1979\")"},
      {"bob", "senior", "72000.0", "Date(\"9/15/1982\")"},
      {"cho", "junior", "51000.0", "Date(\"1/20/1986\")"},
      {"dee", "senior", "69000.0", "Date(\"6/30/1981\")"},
  };
  const char* dept[] = {"Research", "Sales", "Sales", "Research"};
  for (int i = 0; i < 4; ++i) {
    Run(db, std::string("append to Employees (name = \"") + staff[i][0] +
                "\", grade = " + staff[i][1] + ", salary = " + staff[i][2] +
                ", hired = " + staff[i][3] +
                ", dept = D) from D in Departments where D.name = \"" +
                dept[i] + "\"");
  }
  Run(db, R"(append to E.reviews (4.5) from E in Employees
             where E.name = "cho")");
  Run(db, R"(append to E.reviews (3.9) from E in Employees
             where E.name = "cho")");

  // --- Reporting ----------------------------------------------------------
  Run(db, R"(retrieve (E.name, E.grade, E.salary) from E in Employees
             sort by -E.salary)");
  Run(db, R"(retrieve unique (E.dept.name, count(E over E.dept),
                              avg(E.salary over E.dept))
             from E in Employees)");
  Run(db, R"(retrieve (E.name) from E in Employees
             where E.hired < Date("1/1/1982"))");
  Run(db, R"(retrieve (median(E.salary)) from E in Employees)");

  // --- Derived data through EXCESS functions -------------------------------
  Run(db, R"(define function Seniority (E: Employee) returns int4 as
             retrieve ((Date("7/6/1988") - E.hired) / 365))");
  Run(db, R"(define function AvgReview (E: Employee) returns float8 as
             retrieve (avg(E.reviews)))");
  Run(db, "retrieve (E.name, E.Seniority, E.AvgReview) from E in Employees "
          "sort by E.name");

  // --- Encapsulated updates: stored-command procedures ---------------------
  Run(db, R"(define procedure AnnualRaise (E: Employee, pct: float8) as
             replace E (salary = E.salary * (1.0 + pct)))");
  Run(db, R"(execute AnnualRaise(E, 0.05) from E in Employees
             where E.grade = senior)");
  Run(db, "retrieve (E.name, E.salary) from E in Employees sort by E.name");

  // --- Access methods -------------------------------------------------------
  Run(db, "create index SalIdx on Employees (salary) using btree");
  Run(db, "retrieve (E.name) from E in Employees where E.salary > 90000.0");
  std::cout << "-- plan --\n" << db.last_plan() << "\n";

  // --- Authorization: data abstraction (paper 4.2.3) -----------------------
  Run(db, "create user hrbot");
  Run(db, R"(define function Payroll (x: int4) returns float8 as
             retrieve (sum(E.salary)) from E in Employees)");
  Run(db, "grant execute on Payroll to hrbot");
  Run(db, "set user hrbot");
  Run(db, "retrieve (E.salary) from E in Employees", /*expect_error=*/true);
  Run(db, "retrieve (Payroll(0))");  // definer rights make this work
  Run(db, "set user dba");

  // --- Persistence -----------------------------------------------------------
  const std::string path = "/tmp/exodus_company_example.db";
  auto save = db.Save(path);
  std::cout << "save: " << save.ToString() << "\n";
  auto loaded = exodus::Database::Load(path);
  if (loaded.ok()) {
    Run(**loaded, "retrieve (count(E), sum(E.salary)) from E in Employees");
  } else {
    std::cout << "load error: " << loaded.status().ToString() << "\n";
    ++g_failures;
  }
  std::remove(path.c_str());

  if (g_failures > 0) {
    std::cout << g_failures << " step(s) misbehaved\n";
    return 1;
  }
  std::cout << "company example completed\n";
  return 0;
}
