//! Evaluator for the Jx9 subset. Values are `serde_json::Value`.

use std::collections::HashMap;

use serde_json::{json, Value};

use super::lexer::tokenize;
use super::parser::{parse, Expr, LValue, PathStep, Stmt};
use super::Jx9Error;

/// Hard cap on loop iterations, so a buggy query cannot wedge a Bedrock
/// process (queries run inside provider ULTs).
const MAX_ITERATIONS: usize = 1_000_000;

/// Evaluates `script` with the given initial variable bindings.
pub fn eval_with_bindings(script: &str, bindings: &[(&str, Value)]) -> Result<Value, Jx9Error> {
    let tokens = tokenize(script)?;
    let stmts = parse(&tokens)?;
    let mut env = Env {
        vars: bindings.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        iterations: 0,
    };
    match env.run_block(&stmts)? {
        Flow::Return(value) => Ok(value),
        Flow::Normal => Ok(Value::Null),
    }
}

enum Flow {
    Normal,
    Return(Value),
}

struct Env {
    vars: HashMap<String, Value>,
    iterations: usize,
}

fn truthy(value: &Value) -> bool {
    match value {
        Value::Null => false,
        Value::Bool(b) => *b,
        Value::Number(n) => n.as_f64().is_some_and(|x| x != 0.0),
        Value::String(s) => !s.is_empty(),
        Value::Array(a) => !a.is_empty(),
        Value::Object(o) => !o.is_empty(),
    }
}

fn as_number(value: &Value) -> Option<f64> {
    value.as_f64()
}

fn number_value(x: f64) -> Value {
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        json!(x as i64)
    } else {
        json!(x)
    }
}

impl Env {
    fn tick(&mut self) -> Result<(), Jx9Error> {
        self.iterations += 1;
        if self.iterations > MAX_ITERATIONS {
            Err(Jx9Error("iteration limit exceeded".into()))
        } else {
            Ok(())
        }
    }

    fn run_block(&mut self, stmts: &[Stmt]) -> Result<Flow, Jx9Error> {
        for stmt in stmts {
            if let Flow::Return(value) = self.run_stmt(stmt)? {
                return Ok(Flow::Return(value));
            }
        }
        Ok(Flow::Normal)
    }

    fn run_stmt(&mut self, stmt: &Stmt) -> Result<Flow, Jx9Error> {
        self.tick()?;
        match stmt {
            Stmt::Assign(lvalue, expr) => {
                let value = self.eval(expr)?;
                self.assign(lvalue, value)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Return(expr) => Ok(Flow::Return(self.eval(expr)?)),
            Stmt::If(cond, then_block, else_block) => {
                let branch = if truthy(&self.eval(cond)?) { then_block } else { else_block };
                self.run_block(branch)
            }
            Stmt::While(cond, body) => {
                while truthy(&self.eval(cond)?) {
                    self.tick()?;
                    if let Flow::Return(value) = self.run_block(body)? {
                        return Ok(Flow::Return(value));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach { collection, key, value, body } => {
                let items = self.eval(collection)?;
                match items {
                    Value::Array(array) => {
                        for (index, item) in array.into_iter().enumerate() {
                            self.tick()?;
                            if let Some(key_name) = key {
                                self.vars.insert(key_name.clone(), json!(index));
                            }
                            self.vars.insert(value.clone(), item);
                            if let Flow::Return(v) = self.run_block(body)? {
                                return Ok(Flow::Return(v));
                            }
                        }
                    }
                    Value::Object(map) => {
                        for (k, item) in map {
                            self.tick()?;
                            if let Some(key_name) = key {
                                self.vars.insert(key_name.clone(), json!(k));
                            }
                            self.vars.insert(value.clone(), item);
                            if let Flow::Return(v) = self.run_block(body)? {
                                return Ok(Flow::Return(v));
                            }
                        }
                    }
                    Value::Null => {}
                    other => {
                        return Err(Jx9Error(format!("foreach over non-collection: {other}")))
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(&mut self, lvalue: &LValue, value: Value) -> Result<(), Jx9Error> {
        if lvalue.path.is_empty() {
            self.vars.insert(lvalue.var.clone(), value);
            return Ok(());
        }
        // Evaluate index expressions first (they may read variables).
        let mut steps = Vec::with_capacity(lvalue.path.len());
        for step in &lvalue.path {
            steps.push(match step {
                PathStep::Member(name) => ResolvedStep::Key(name.clone()),
                PathStep::Index(expr) => {
                    let idx = self.eval(expr)?;
                    match idx {
                        Value::String(s) => ResolvedStep::Key(s),
                        Value::Number(n) => ResolvedStep::Index(n.as_u64().ok_or_else(|| {
                            Jx9Error("negative/fractional array index".into())
                        })? as usize),
                        other => return Err(Jx9Error(format!("bad index {other}"))),
                    }
                }
            });
        }
        let root = self.vars.entry(lvalue.var.clone()).or_insert(Value::Null);
        let mut cursor = root;
        for step in steps {
            match step {
                ResolvedStep::Key(key) => {
                    if !cursor.is_object() {
                        *cursor = json!({});
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "cursor was coerced to an object on the line above; its shape cannot change between"
                    )]
                    let object = cursor.as_object_mut().expect("just coerced to object");
                    cursor = object.entry(key).or_insert(Value::Null);
                }
                ResolvedStep::Index(index) => {
                    if !cursor.is_array() {
                        *cursor = json!([]);
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "cursor was coerced to an array on the line above; its shape cannot change between"
                    )]
                    let array = cursor.as_array_mut().expect("just coerced to array");
                    if array.len() <= index {
                        array.resize(index + 1, Value::Null);
                    }
                    cursor = &mut array[index];
                }
            }
        }
        *cursor = value;
        Ok(())
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, Jx9Error> {
        self.tick()?;
        match expr {
            Expr::Null => Ok(Value::Null),
            Expr::Bool(b) => Ok(json!(b)),
            Expr::Int(n) => Ok(json!(n)),
            Expr::Float(x) => Ok(json!(x)),
            Expr::Str(s) => Ok(json!(s)),
            Expr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::Array(out))
            }
            Expr::Object(fields) => {
                let mut map = serde_json::Map::new();
                for (key, value_expr) in fields {
                    map.insert(key.clone(), self.eval(value_expr)?);
                }
                Ok(Value::Object(map))
            }
            Expr::Var(name) => Ok(self.vars.get(name).cloned().unwrap_or(Value::Null)),
            Expr::Member(base, field) => {
                let base = self.eval(base)?;
                Ok(base.get(field).cloned().unwrap_or(Value::Null))
            }
            Expr::Index(base, index) => {
                let base = self.eval(base)?;
                let index = self.eval(index)?;
                match (&base, &index) {
                    (Value::Array(a), Value::Number(n)) => Ok(n
                        .as_u64()
                        .and_then(|i| a.get(i as usize))
                        .cloned()
                        .unwrap_or(Value::Null)),
                    (Value::Object(o), Value::String(s)) => {
                        Ok(o.get(s).cloned().unwrap_or(Value::Null))
                    }
                    _ => Ok(Value::Null),
                }
            }
            Expr::Unary("!", inner) => Ok(json!(!truthy(&self.eval(inner)?))),
            Expr::Unary("-", inner) => {
                let v = self.eval(inner)?;
                let n = as_number(&v).ok_or_else(|| Jx9Error(format!("cannot negate {v}")))?;
                Ok(number_value(-n))
            }
            Expr::Unary(op, _) => Err(Jx9Error(format!("unknown unary '{op}'"))),
            Expr::Binary(op, left, right) => self.binary(op, left, right),
            Expr::Call(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                // array_push mutates its first argument (a variable).
                if name == "array_push" {
                    return self.builtin_array_push(args);
                }
                for arg in args {
                    values.push(self.eval(arg)?);
                }
                self.builtin(name, values)
            }
        }
    }

    fn binary(&mut self, op: &str, left: &Expr, right: &Expr) -> Result<Value, Jx9Error> {
        // Short-circuit logical operators.
        if op == "&&" {
            let l = self.eval(left)?;
            if !truthy(&l) {
                return Ok(json!(false));
            }
            return Ok(json!(truthy(&self.eval(right)?)));
        }
        if op == "||" {
            let l = self.eval(left)?;
            if truthy(&l) {
                return Ok(json!(true));
            }
            return Ok(json!(truthy(&self.eval(right)?)));
        }
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        match op {
            "==" => Ok(json!(l == r)),
            "!=" => Ok(json!(l != r)),
            "<" | "<=" | ">" | ">=" => {
                let result = match (&l, &r) {
                    (Value::String(a), Value::String(b)) => match op {
                        "<" => a < b,
                        "<=" => a <= b,
                        ">" => a > b,
                        _ => a >= b,
                    },
                    _ => {
                        let a = as_number(&l)
                            .ok_or_else(|| Jx9Error(format!("cannot compare {l}")))?;
                        let b = as_number(&r)
                            .ok_or_else(|| Jx9Error(format!("cannot compare {r}")))?;
                        match op {
                            "<" => a < b,
                            "<=" => a <= b,
                            ">" => a > b,
                            _ => a >= b,
                        }
                    }
                };
                Ok(json!(result))
            }
            "+" => match (&l, &r) {
                // `+` concatenates strings and arrays, like Jx9.
                (Value::String(a), Value::String(b)) => Ok(json!(format!("{a}{b}"))),
                (Value::Array(a), Value::Array(b)) => {
                    let mut out = a.clone();
                    out.extend(b.iter().cloned());
                    Ok(Value::Array(out))
                }
                _ => self.arith(op, &l, &r),
            },
            "-" | "*" | "/" | "%" => self.arith(op, &l, &r),
            _ => Err(Jx9Error(format!("unknown operator '{op}'"))),
        }
    }

    fn arith(&self, op: &str, l: &Value, r: &Value) -> Result<Value, Jx9Error> {
        let a = as_number(l).ok_or_else(|| Jx9Error(format!("non-numeric operand {l}")))?;
        let b = as_number(r).ok_or_else(|| Jx9Error(format!("non-numeric operand {r}")))?;
        let result = match op {
            "+" => a + b,
            "-" => a - b,
            "*" => a * b,
            "/" => {
                if b == 0.0 {
                    return Err(Jx9Error("division by zero".into()));
                }
                a / b
            }
            "%" => {
                if b == 0.0 {
                    return Err(Jx9Error("modulo by zero".into()));
                }
                a % b
            }
            other => return Err(Jx9Error(format!("unknown operator '{other}'"))),
        };
        Ok(number_value(result))
    }

    fn builtin_array_push(&mut self, args: &[Expr]) -> Result<Value, Jx9Error> {
        let [target, rest @ ..] = args else {
            return Err(Jx9Error("array_push needs a target".into()));
        };
        let Expr::Var(name) = target else {
            return Err(Jx9Error("array_push target must be a variable".into()));
        };
        let mut values = Vec::with_capacity(rest.len());
        for arg in rest {
            values.push(self.eval(arg)?);
        }
        let slot = self.vars.entry(name.clone()).or_insert_with(|| json!([]));
        let Some(array) = slot.as_array_mut() else {
            return Err(Jx9Error(format!("array_push on non-array ${name}")));
        };
        let count = values.len();
        array.extend(values);
        let _ = count;
        Ok(json!(array.len()))
    }

    fn builtin(&mut self, name: &str, args: Vec<Value>) -> Result<Value, Jx9Error> {
        match (name, args.as_slice()) {
            ("count", [Value::Array(a)]) => Ok(json!(a.len())),
            ("count", [Value::Object(o)]) => Ok(json!(o.len())),
            ("count", [Value::String(s)]) => Ok(json!(s.len())),
            ("count", [Value::Null]) => Ok(json!(0)),
            ("keys", [Value::Object(o)]) => {
                Ok(Value::Array(o.keys().map(|k| json!(k)).collect()))
            }
            ("values", [Value::Object(o)]) => Ok(Value::Array(o.values().cloned().collect())),
            ("contains", [Value::Array(a), needle]) => Ok(json!(a.contains(needle))),
            ("contains", [Value::String(s), Value::String(sub)]) => {
                Ok(json!(s.contains(sub.as_str())))
            }
            ("contains", [Value::Object(o), Value::String(key)]) => {
                Ok(json!(o.contains_key(key)))
            }
            ("concat", values) => {
                let mut out = String::new();
                for v in values {
                    match v {
                        Value::String(s) => out.push_str(s),
                        other => out.push_str(&other.to_string()),
                    }
                }
                Ok(json!(out))
            }
            ("min", values) | ("max", values) if !values.is_empty() => {
                let mut best = if name == "min" { f64::INFINITY } else { f64::NEG_INFINITY };
                for v in values {
                    let n =
                        as_number(v).ok_or_else(|| Jx9Error(format!("{name} of non-number")))?;
                    best = if name == "min" { best.min(n) } else { best.max(n) };
                }
                Ok(number_value(best))
            }
            _ => Err(Jx9Error(format!("unknown function '{name}' ({} args)", args.len()))),
        }
    }
}

enum ResolvedStep {
    Key(String),
    Index(usize),
}

#[cfg(test)]
mod tests {
    use super::super::eval;
    use super::*;

    #[test]
    fn listing4_exact_program() {
        let config = json!({
            "providers": [
                {"name": "myProviderA", "type": "A"},
                {"name": "myProviderB", "type": "B"},
                {"name": "remi", "type": "remi"},
            ]
        });
        let script = r#"
            $result = [];
            foreach ($__config__.providers as $p) {
                array_push($result, $p.name); }
            return $result;
        "#;
        assert_eq!(
            eval(script, &config).unwrap(),
            json!(["myProviderA", "myProviderB", "remi"])
        );
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("return 1 + 2 * 3;", &Value::Null).unwrap(), json!(7));
        assert_eq!(eval("return (1 + 2) * 3;", &Value::Null).unwrap(), json!(9));
        assert_eq!(eval("return 7 % 3;", &Value::Null).unwrap(), json!(1));
        assert_eq!(eval("return 1 / 2;", &Value::Null).unwrap(), json!(0.5));
        assert_eq!(eval("return -3 + 1;", &Value::Null).unwrap(), json!(-2));
    }

    #[test]
    fn string_and_array_plus() {
        assert_eq!(eval(r#"return "a" + "b";"#, &Value::Null).unwrap(), json!("ab"));
        assert_eq!(eval("return [1] + [2, 3];", &Value::Null).unwrap(), json!([1, 2, 3]));
    }

    #[test]
    fn conditionals_and_loops() {
        let script = r#"
            $n = 0; $sum = 0;
            while ($n < 5) { $sum = $sum + $n; $n = $n + 1; }
            if ($sum == 10) { return "ten"; } else { return $sum; }
        "#;
        assert_eq!(eval(script, &Value::Null).unwrap(), json!("ten"));
    }

    #[test]
    fn foreach_with_key_over_object() {
        let config = json!({"pools": {"p1": 1, "p2": 2}});
        let script = r#"
            $names = [];
            foreach ($__config__.pools as $name => $v) { array_push($names, $name); }
            return $names;
        "#;
        let result = eval(script, &config).unwrap();
        let names: Vec<String> =
            result.as_array().unwrap().iter().map(|v| v.as_str().unwrap().into()).collect();
        assert!(names.contains(&"p1".to_string()) && names.contains(&"p2".to_string()));
    }

    #[test]
    fn member_of_missing_field_is_null() {
        assert_eq!(eval("return $__config__.ghost.deep;", &json!({})).unwrap(), Value::Null);
    }

    #[test]
    fn filtering_query() {
        let config = json!({"providers": [
            {"name": "a", "type": "yokan"},
            {"name": "b", "type": "warabi"},
            {"name": "c", "type": "yokan"},
        ]});
        let script = r#"
            $out = [];
            foreach ($__config__.providers as $p) {
                if ($p.type == "yokan") { array_push($out, $p.name); } }
            return $out;
        "#;
        assert_eq!(eval(script, &config).unwrap(), json!(["a", "c"]));
    }

    #[test]
    fn builtins() {
        assert_eq!(eval("return count([1,2,3]);", &Value::Null).unwrap(), json!(3));
        assert_eq!(
            eval(r#"return contains([1,2], 2);"#, &Value::Null).unwrap(),
            json!(true)
        );
        assert_eq!(
            eval(r#"return concat("a", 1, "b");"#, &Value::Null).unwrap(),
            json!("a1b")
        );
        assert_eq!(eval("return min(3, 1, 2);", &Value::Null).unwrap(), json!(1));
        assert_eq!(eval("return max(3, 1, 2);", &Value::Null).unwrap(), json!(3));
        assert_eq!(
            eval(r#"return keys({"a" => 1});"#, &Value::Null).unwrap(),
            json!(["a"])
        );
    }

    #[test]
    fn nested_assignment_paths() {
        let script = r#"
            $x = {};
            $x.list = [];
            $x.list[2] = "third";
            $x.meta.count = 3;
            return $x;
        "#;
        assert_eq!(
            eval(script, &Value::Null).unwrap(),
            json!({"list": [null, null, "third"], "meta": {"count": 3}})
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(eval("return 1 / 0;", &Value::Null).is_err());
        assert!(eval("return 1 % 0;", &Value::Null).is_err());
    }

    #[test]
    fn infinite_loop_hits_iteration_cap() {
        let err = eval("while (true) { $x = 1; }", &Value::Null).unwrap_err();
        assert!(err.0.contains("iteration limit"));
    }

    #[test]
    fn script_without_return_yields_null() {
        assert_eq!(eval("$x = 5;", &Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn truthiness_rules() {
        assert_eq!(eval(r#"if ([]) { return 1; } return 0;"#, &Value::Null).unwrap(), json!(0));
        assert_eq!(eval(r#"if ("x") { return 1; } return 0;"#, &Value::Null).unwrap(), json!(1));
        assert_eq!(eval(r#"if (0) { return 1; } return 0;"#, &Value::Null).unwrap(), json!(0));
        assert_eq!(eval(r#"return !null;"#, &Value::Null).unwrap(), json!(true));
    }

    #[test]
    fn logical_short_circuit() {
        // The RHS would error (unknown function); && must not evaluate it.
        assert_eq!(
            eval("return false && boom();", &Value::Null).unwrap(),
            json!(false)
        );
        assert_eq!(eval("return true || boom();", &Value::Null).unwrap(), json!(true));
    }
}
