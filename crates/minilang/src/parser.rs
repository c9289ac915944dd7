//! Recursive-descent parser.
//!
//! Grammar (informal):
//!
//! ```text
//! module     := item*
//! item       := annotation* "fn" ident "(" params ")" ("->" type)? block
//!             | "global" ident ":" type ("=" expr)? ";"
//! annotation := "@" ident ("(" ident ")")?
//! block      := "{" stmt* "}"
//! stmt       := "let" ident ":" type ("=" expr)? ";"
//!             | "if" expr block ("else" (block | if-stmt))?
//!             | "while" expr block
//!             | "for" simple? ";" expr? ";" simple? block
//!             | "switch" expr "{" ("case" int ":" block)* ("default" ":" block)? "}"
//!             | "break" ";" | "continue" ";" | "return" expr? ";"
//!             | block
//!             | simple ";"
//! simple     := lvalue ("=" | "+=" | "-=" | "*=" | "/=") expr | expr
//! expr       := precedence-climbing over || && | ^ & == != < <= > >= << >> + - * / %
//! unary      := ("-" | "!") unary | postfix
//! postfix    := primary ("[" expr "]")*
//! primary    := literal | ident ("(" args ")")? | "(" expr ")"
//! ```

use crate::ast::*;
use crate::dialect::Dialect;
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Deepest nesting of expressions, unary operators, blocks and `else if`
/// chains the parser accepts. Recursive descent — and every AST pass
/// after it — uses stack in proportion to nesting, so a fixed bound turns
/// a hostile input (a few kilobytes of `(((…` or nested `if`s) into a
/// [`ParseError`] instead of a stack overflow. Real programs stay far
/// below it.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Deepest expression tree the parser builds, counting every node on the
/// longest root-to-leaf path (a literal is depth 1, `a + b` depth 2).
/// [`MAX_NESTING_DEPTH`] bounds the parser's own recursion, but a long
/// left-deep chain — `1 + 1 + … + 1` or `a[1][2]…` — is a loop in the
/// parser that would still build a tree as deep as the chain is long, and
/// dropping that tree or walking it recurses once per level. Chain steps
/// therefore count here too: the parser refuses to build any node past
/// this depth and reports a [`ParseError`] instead. Real programs stay far
/// below it.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parse one source file into a [`Module`].
pub fn parse_module(path: &str, source: &str, dialect: Dialect) -> Result<Module, ParseError> {
    let tokens = Lexer::new(source, dialect).tokenize()?;
    let mut parser = Parser::new(tokens);
    let (globals, functions) = parser.module_items()?;
    Ok(Module {
        path: path.to_string(),
        dialect,
        source: source.to_string(),
        globals,
        functions,
    })
}

/// Parse a set of `(path, source)` files into a [`Program`].
pub fn parse_program(
    name: &str,
    dialect: Dialect,
    files: &[(String, String)],
) -> Result<Program, ParseError> {
    let mut program = Program::new(name, dialect);
    for (path, source) in files {
        program.modules.push(parse_module(path, source, dialect)?);
    }
    Ok(program)
}

/// Token-stream parser. Construct via [`Parser::new`] and call
/// [`Parser::module_items`], or use the [`parse_module`] convenience wrapper.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_NESTING_DEPTH`].
    depth: usize,
}

impl Parser {
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Run `parse` one nesting level deeper, failing once the input nests
    /// past [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(ParseError::new(
                format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
                self.peek().span,
            ));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    /// Consume the current token. The parser never looks back, so the
    /// token moves out of the stream instead of being cloned; the final
    /// token (`Eof`) is never consumed, so peeking past the end keeps
    /// seeing it.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let span = self.tokens[self.pos].span;
        let tok = std::mem::replace(&mut self.tokens[self.pos], Token::new(TokenKind::Eof, span));
        self.pos += 1;
        tok
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.check(&kind) {
            Ok(self.advance())
        } else {
            Err(ParseError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
                self.peek().span,
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        if !matches!(self.peek_kind(), TokenKind::Ident(_)) {
            return Err(ParseError::new(
                format!("expected identifier, found {}", self.peek_kind().describe()),
                self.peek().span,
            ));
        }
        match self.advance() {
            Token {
                kind: TokenKind::Ident(name),
                span,
            } => Ok((name, span)),
            _ => unreachable!("checked to be an identifier above"),
        }
    }

    /// Parse all top-level items.
    pub fn module_items(&mut self) -> Result<(Vec<Global>, Vec<Function>), ParseError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        while !self.check(&TokenKind::Eof) {
            if self.check(&TokenKind::KwGlobal) {
                globals.push(self.global()?);
            } else {
                functions.push(self.function()?);
            }
        }
        Ok((globals, functions))
    }

    fn global(&mut self) -> Result<Global, ParseError> {
        let start = self.expect(TokenKind::KwGlobal)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.ty()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Global {
            name,
            ty,
            init,
            span: start.to(end),
        })
    }

    fn annotations(&mut self) -> Result<Vec<Annotation>, ParseError> {
        let mut out = Vec::new();
        while self.eat(&TokenKind::At) {
            let (name, span) = self.expect_ident()?;
            let arg = if self.eat(&TokenKind::LParen) {
                let (a, _) = self.expect_ident()?;
                self.expect(TokenKind::RParen)?;
                Some(a)
            } else {
                None
            };
            let ann = match (name.as_str(), arg.as_deref()) {
                ("endpoint", Some(kind)) => ChannelKind::from_name(kind)
                    .map(Annotation::Endpoint)
                    .ok_or_else(|| {
                        ParseError::new(format!("unknown endpoint kind `{kind}`"), span)
                    })?,
                ("priv", Some(level)) => PrivLevel::from_name(level)
                    .map(Annotation::Priv)
                    .ok_or_else(|| {
                        ParseError::new(format!("unknown privilege level `{level}`"), span)
                    })?,
                ("untrusted", None) => Annotation::Untrusted,
                ("deprecated", None) => Annotation::Deprecated,
                _ => {
                    return Err(ParseError::new(
                        format!("unknown annotation `@{name}`"),
                        span,
                    ));
                }
            };
            out.push(ann);
        }
        Ok(out)
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let annotations = self.annotations()?;
        let start = self.expect(TokenKind::KwFn)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                let (pname, pspan) = self.expect_ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.ty()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if self.eat(&TokenKind::Arrow) {
            self.ty()?
        } else {
            Type::Void
        };
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Function {
            name,
            params,
            ret,
            body,
            annotations,
            span,
        })
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let base = match self.peek_kind() {
            TokenKind::KwInt => Type::Int,
            TokenKind::KwFloat => Type::Float,
            TokenKind::KwBool => Type::Bool,
            TokenKind::KwStr => Type::Str,
            TokenKind::KwVoid => Type::Void,
            other => {
                return Err(ParseError::new(
                    format!("expected type, found {}", other.describe()),
                    self.peek().span,
                ))
            }
        };
        self.advance();
        if self.eat(&TokenKind::LBracket) {
            let size = match self.peek_kind() {
                TokenKind::Int(n) if *n > 0 => *n as usize,
                other => {
                    return Err(ParseError::new(
                        format!("expected positive array size, found {}", other.describe()),
                        self.peek().span,
                    ))
                }
            };
            self.advance();
            self.expect(TokenKind::RBracket)?;
            Ok(Type::Array(Box::new(base), size))
        } else {
            Ok(base)
        }
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.nested(Self::block_inner)
    }

    fn block_inner(&mut self) -> Result<Block, ParseError> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            if self.check(&TokenKind::Eof) {
                return Err(ParseError::new("unterminated block", start));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Block::new(stmts, start.to(end)))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::KwLet => {
                self.advance();
                let (name, _) = self.expect_ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.ty()?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Let { name, ty, init }, start.to(end)))
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.advance();
                let cond = self.expr()?;
                let body = self.block()?;
                let span = start.to(body.span);
                Ok(Stmt::new(StmtKind::While { cond, body }, span))
            }
            TokenKind::KwFor => self.for_stmt(start),
            TokenKind::KwSwitch => self.switch_stmt(start),
            TokenKind::KwBreak => {
                self.advance();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Break, start.to(end)))
            }
            TokenKind::KwContinue => {
                self.advance();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Continue, start.to(end)))
            }
            TokenKind::KwReturn => {
                self.advance();
                let value = if self.check(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Return(value), start.to(end)))
            }
            TokenKind::LBrace => {
                let block = self.block()?;
                let span = block.span;
                Ok(Stmt::new(StmtKind::Block(block), span))
            }
            _ => {
                let stmt = self.simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                Ok(stmt)
            }
        }
    }

    // `for` and `switch` parse out of line: their locals would otherwise
    // sit in every `stmt` frame, and `stmt` recurses once per nesting
    // level.
    fn for_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.advance();
        let init = if self.check(&TokenKind::Semi) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(TokenKind::Semi)?;
        let cond = if self.check(&TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.check(&TokenKind::LBrace) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            span,
        ))
    }

    fn switch_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.advance();
        let scrutinee = self.expr()?;
        self.expect(TokenKind::LBrace)?;
        let mut cases = Vec::new();
        let mut default = None;
        loop {
            if self.eat(&TokenKind::KwCase) {
                let case_start = self.peek().span;
                let negative = self.eat(&TokenKind::Minus);
                let value = match self.peek_kind() {
                    TokenKind::Int(n) => {
                        let v = *n;
                        self.advance();
                        if negative {
                            -v
                        } else {
                            v
                        }
                    }
                    other => {
                        return Err(ParseError::new(
                            format!("expected integer case label, found {}", other.describe()),
                            self.peek().span,
                        ))
                    }
                };
                self.expect(TokenKind::Colon)?;
                let body = self.block()?;
                let span = case_start.to(body.span);
                cases.push(SwitchCase { value, body, span });
            } else if self.eat(&TokenKind::KwDefault) {
                self.expect(TokenKind::Colon)?;
                if default.is_some() {
                    return Err(ParseError::new("duplicate `default` arm", self.peek().span));
                }
                default = Some(self.block()?);
            } else {
                break;
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Stmt::new(
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            },
            start.to(end),
        ))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(TokenKind::KwIf)?.span;
        let cond = self.expr()?;
        let then_branch = self.block()?;
        let else_branch = if self.eat(&TokenKind::KwElse) {
            if self.check(&TokenKind::KwIf) {
                // `else if` desugars to `else { if .. }`.
                let nested = self.nested(Self::if_stmt)?;
                let span = nested.span;
                Some(Block::new(vec![nested], span))
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        let end = else_branch
            .as_ref()
            .map(|b| b.span)
            .unwrap_or(then_branch.span);
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            start.to(end),
        ))
    }

    /// An assignment or bare expression, without the trailing `;`
    /// (shared between expression statements and `for` init/step slots).
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        let expr = self.expr()?;
        let compound = match self.peek_kind() {
            TokenKind::Assign => Some(None),
            TokenKind::PlusEq => Some(Some(BinaryOp::Add)),
            TokenKind::MinusEq => Some(Some(BinaryOp::Sub)),
            TokenKind::StarEq => Some(Some(BinaryOp::Mul)),
            TokenKind::SlashEq => Some(Some(BinaryOp::Div)),
            _ => None,
        };
        if let Some(op) = compound {
            self.advance();
            let target = Self::expr_to_lvalue(expr)?;
            let value = self.expr()?;
            let span = start.to(value.span);
            Ok(Stmt::new(StmtKind::Assign { target, op, value }, span))
        } else {
            let span = start.to(expr.span);
            Ok(Stmt::new(StmtKind::Expr(expr), span))
        }
    }

    fn expr_to_lvalue(expr: Expr) -> Result<LValue, ParseError> {
        let span = expr.span;
        match expr.kind {
            ExprKind::Var(name) => Ok(LValue::Var(name, span)),
            ExprKind::Index { base, index } => match base.kind {
                ExprKind::Var(name) => Ok(LValue::Index {
                    base: name,
                    index: *index,
                    span,
                }),
                _ => Err(ParseError::new(
                    "assignment target must be `name[index]`",
                    span,
                )),
            },
            _ => Err(ParseError::new("invalid assignment target", span)),
        }
    }

    /// Expression entry point (precedence climbing).
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.expr_with_depth()?.0)
    }

    /// An expression plus the depth of its tree.
    fn expr_with_depth(&mut self) -> Result<(Expr, usize), ParseError> {
        self.nested(|p| p.binary_expr(0))
    }

    /// The depth of a node whose deepest child has depth `child`, or an
    /// error (at `at`) when that node would exceed [`MAX_EXPR_DEPTH`].
    fn node_depth(&self, child: usize, at: Span) -> Result<usize, ParseError> {
        if child >= MAX_EXPR_DEPTH {
            return Err(ParseError::new(
                format!("expression deeper than {MAX_EXPR_DEPTH} levels"),
                at,
            ));
        }
        Ok(child + 1)
    }

    /// Binding powers, loosest to tightest:
    /// `||` < `&&` < `|` < `^` < `&` < comparisons < shifts < `+ -` < `* / %`.
    fn binop_at(&self, min_bp: u8) -> Option<(BinaryOp, u8)> {
        let (op, bp) = match self.peek_kind() {
            TokenKind::OrOr => (BinaryOp::Or, 1),
            TokenKind::AndAnd => (BinaryOp::And, 2),
            TokenKind::Pipe => (BinaryOp::BitOr, 3),
            TokenKind::Caret => (BinaryOp::BitXor, 4),
            TokenKind::Amp => (BinaryOp::BitAnd, 5),
            TokenKind::EqEq => (BinaryOp::Eq, 6),
            TokenKind::NotEq => (BinaryOp::Ne, 6),
            TokenKind::Lt => (BinaryOp::Lt, 6),
            TokenKind::Le => (BinaryOp::Le, 6),
            TokenKind::Gt => (BinaryOp::Gt, 6),
            TokenKind::Ge => (BinaryOp::Ge, 6),
            TokenKind::Shl => (BinaryOp::Shl, 7),
            TokenKind::Shr => (BinaryOp::Shr, 7),
            TokenKind::Plus => (BinaryOp::Add, 8),
            TokenKind::Minus => (BinaryOp::Sub, 8),
            TokenKind::Star => (BinaryOp::Mul, 9),
            TokenKind::Slash => (BinaryOp::Div, 9),
            TokenKind::Percent => (BinaryOp::Rem, 9),
            _ => return None,
        };
        (bp >= min_bp).then_some((op, bp))
    }

    fn binary_expr(&mut self, min_bp: u8) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut depth) = self.unary_expr()?;
        while let Some((op, bp)) = self.binop_at(min_bp) {
            let at = self.advance().span;
            let (rhs, rhs_depth) = self.binary_expr(bp + 1)?;
            depth = self.node_depth(depth.max(rhs_depth), at)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok((lhs, depth))
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let start = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Bang => Some(UnaryOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let (operand, operand_depth) = self.nested(Self::unary_expr)?;
            let depth = self.node_depth(operand_depth, start)?;
            let span = start.to(operand.span);
            return Ok((
                Expr::new(
                    ExprKind::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                    span,
                ),
                depth,
            ));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let (mut expr, mut depth) = self.primary_expr()?;
        while self.check(&TokenKind::LBracket) {
            let at = self.advance().span;
            let (index, index_depth) = self.expr_with_depth()?;
            let end = self.expect(TokenKind::RBracket)?.span;
            depth = self.node_depth(depth.max(index_depth), at)?;
            let span = expr.span.to(end);
            expr = Expr::new(
                ExprKind::Index {
                    base: Box::new(expr),
                    index: Box::new(index),
                },
                span,
            );
        }
        Ok((expr, depth))
    }

    fn primary_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let span = self.peek().span;
        let leaf = |kind| Ok((Expr::new(kind, span), 1));
        match self.peek_kind() {
            TokenKind::Int(_)
            | TokenKind::Float(_)
            | TokenKind::Str(_)
            | TokenKind::KwTrue
            | TokenKind::KwFalse
            | TokenKind::Ident(_)
            | TokenKind::LParen => {}
            other => {
                return Err(ParseError::new(
                    format!("expected expression, found {}", other.describe()),
                    span,
                ))
            }
        }
        match self.advance().kind {
            TokenKind::Int(v) => leaf(ExprKind::Int(v)),
            TokenKind::Float(v) => leaf(ExprKind::Float(v)),
            TokenKind::Str(s) => leaf(ExprKind::Str(s)),
            TokenKind::KwTrue => leaf(ExprKind::Bool(true)),
            TokenKind::KwFalse => leaf(ExprKind::Bool(false)),
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    let mut deepest = 0;
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            let (arg, arg_depth) = self.expr_with_depth()?;
                            args.push(arg);
                            deepest = deepest.max(arg_depth);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    let depth = self.node_depth(deepest, span)?;
                    Ok((
                        Expr::new(ExprKind::Call { callee: name, args }, span.to(end)),
                        depth,
                    ))
                } else {
                    leaf(ExprKind::Var(name))
                }
            }
            TokenKind::LParen => {
                let (inner, depth) = self.expr_with_depth()?;
                let end = self.expect(TokenKind::RParen)?.span;
                Ok((Expr::new(inner.kind, span.to(end)), depth))
            }
            _ => unreachable!("checked to start an expression above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        parse_module("test.c", src, Dialect::C).expect("parse")
    }

    #[test]
    fn parses_function_with_params_and_return() {
        let m = parse("fn add(a: int, b: int) -> int { return a + b; }");
        assert_eq!(m.functions.len(), 1);
        let f = &m.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
    }

    #[test]
    fn parses_globals() {
        let m = parse("global counter: int = 0;\nglobal name: str;");
        assert_eq!(m.globals.len(), 2);
        assert!(m.globals[0].init.is_some());
        assert!(m.globals[1].init.is_none());
    }

    #[test]
    fn parses_annotations() {
        let m = parse("@endpoint(network) @priv(root) @untrusted fn f() {}");
        let f = &m.functions[0];
        assert_eq!(f.endpoint_channels(), vec![ChannelKind::Network]);
        assert_eq!(f.privilege(), PrivLevel::Root);
        assert!(f.is_untrusted());
    }

    #[test]
    fn unknown_annotation_is_error() {
        let err = parse_module("t.c", "@inline fn f() {}", Dialect::C).unwrap_err();
        assert!(err.message.contains("unknown annotation"));
    }

    #[test]
    fn precedence_mul_over_add() {
        let m = parse("fn f() -> int { return 1 + 2 * 3; }");
        let body = &m.functions[0].body.stmts[0];
        let StmtKind::Return(Some(e)) = &body.kind else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinaryOp::Add,
            rhs,
            ..
        } = &e.kind
        else {
            panic!("expected + at root, got {e:?}")
        };
        assert!(matches!(
            rhs.kind,
            ExprKind::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn precedence_comparison_over_logical() {
        let m = parse("fn f(a: int, b: int) -> bool { return a < 1 && b > 2; }");
        let StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn parses_if_else_chain() {
        let m = parse("fn f(x: int) { if x < 0 { return; } else if x == 0 { } else { } }");
        let StmtKind::If {
            else_branch: Some(eb),
            ..
        } = &m.functions[0].body.stmts[0].kind
        else {
            panic!()
        };
        // `else if` desugars to a block holding exactly one nested `if`.
        assert_eq!(eb.stmts.len(), 1);
        assert!(matches!(eb.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_for_loop() {
        let m = parse("fn f() { for i = 0; i < 10; i += 1 { log_msg(\"x\"); } }");
        let StmtKind::For {
            init, cond, step, ..
        } = &m.functions[0].body.stmts[0].kind
        else {
            panic!()
        };
        assert!(init.is_some() && cond.is_some() && step.is_some());
    }

    #[test]
    fn for_loop_slots_optional() {
        let m = parse("fn f() { for ; ; { break; } }");
        let StmtKind::For {
            init, cond, step, ..
        } = &m.functions[0].body.stmts[0].kind
        else {
            panic!()
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn parses_switch() {
        let m =
            parse("fn f(x: int) { switch x { case 1: { return; } case -2: { } default: { } } }");
        let StmtKind::Switch { cases, default, .. } = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[1].value, -2);
        assert!(default.is_some());
    }

    #[test]
    fn duplicate_default_is_error() {
        let err = parse_module(
            "t.c",
            "fn f(x: int) { switch x { default: { } default: { } } }",
            Dialect::C,
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate `default`"));
    }

    #[test]
    fn parses_buffer_declaration_and_index_assignment() {
        let m = parse("fn f() { let buf: int[64]; buf[3] = 7; }");
        let StmtKind::Let { ty, .. } = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(ty.buffer_capacity(), Some(64));
        let StmtKind::Assign {
            target: LValue::Index { base, .. },
            ..
        } = &m.functions[0].body.stmts[1].kind
        else {
            panic!()
        };
        assert_eq!(base, "buf");
    }

    #[test]
    fn compound_assignment() {
        let m = parse("fn f() { let x: int = 0; x += 2; x *= 3; }");
        let StmtKind::Assign {
            op: Some(BinaryOp::Add),
            ..
        } = &m.functions[0].body.stmts[1].kind
        else {
            panic!()
        };
        let StmtKind::Assign {
            op: Some(BinaryOp::Mul),
            ..
        } = &m.functions[0].body.stmts[2].kind
        else {
            panic!()
        };
    }

    #[test]
    fn call_statement_and_nested_calls() {
        let m = parse("fn f() { printf(\"%d\", strlen(read_input())); }");
        let StmtKind::Expr(e) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Call { callee, args } = &e.kind else {
            panic!()
        };
        assert_eq!(callee, "printf");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn invalid_assignment_target_is_error() {
        let err = parse_module("t.c", "fn f() { 1 + 2 = 3; }", Dialect::C).unwrap_err();
        assert!(err.message.contains("assignment target"));
    }

    #[test]
    fn unterminated_block_is_error() {
        let err = parse_module("t.c", "fn f() { let x: int = 1;", Dialect::C).unwrap_err();
        assert!(err.message.contains("unterminated block"));
    }

    #[test]
    fn zero_array_size_is_error() {
        let err = parse_module("t.c", "fn f() { let b: int[0]; }", Dialect::C).unwrap_err();
        assert!(err.message.contains("positive array size"));
    }

    #[test]
    fn parse_program_collects_modules() {
        let files = vec![
            ("a.c".to_string(), "fn a() {}".to_string()),
            ("b.c".to_string(), "fn b() {}".to_string()),
        ];
        let p = parse_program("app", Dialect::C, &files).unwrap();
        assert_eq!(p.modules.len(), 2);
        assert_eq!(p.function_count(), 2);
    }

    #[test]
    fn parenthesized_expression_overrides_precedence() {
        let m = parse("fn f() -> int { return (1 + 2) * 3; }");
        let StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn nested_block_statement() {
        let m = parse("fn f() { { let x: int = 1; } }");
        assert!(matches!(
            m.functions[0].body.stmts[0].kind,
            StmtKind::Block(_)
        ));
    }

    /// A source whose `let` initializer is `open` + `1` + `close`.
    fn let_source(open: &str, close: &str, depth: usize) -> String {
        format!(
            "fn main() {{ let x: int = {}1{}; }}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    fn nesting_error(src: &str) -> ParseError {
        let err = parse_module("t.c", src, Dialect::C).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        err
    }

    #[test]
    fn deep_parentheses_are_a_typed_error() {
        nesting_error(&let_source("(", ")", 20_000));
    }

    #[test]
    fn deep_if_nesting_is_a_typed_error() {
        let src = format!(
            "fn f(a: int) {{ {}{} }}",
            "if a > 0 { ".repeat(20_000),
            "}".repeat(20_000)
        );
        nesting_error(&src);
    }

    #[test]
    fn deep_unary_and_else_if_chains_are_typed_errors() {
        nesting_error(&let_source("-", "", 20_000));
        let src = format!(
            "fn f(a: int) {{ if a > 0 {{ }}{} }}",
            " else if a > 1 { }".repeat(20_000)
        );
        nesting_error(&src);
    }

    fn depth_error(src: &str) -> ParseError {
        let err = parse_module("t.c", src, Dialect::C).unwrap_err();
        assert!(err.message.contains("expression deeper than"), "{err}");
        err
    }

    /// The depth of an expression tree, walked without recursion.
    fn tree_depth(e: &Expr) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(e, 1)];
        while let Some((e, d)) = stack.pop() {
            deepest = deepest.max(d);
            match &e.kind {
                ExprKind::Binary { lhs, rhs, .. } => {
                    stack.push((lhs, d + 1));
                    stack.push((rhs, d + 1));
                }
                ExprKind::Index { base, index } => {
                    stack.push((base, d + 1));
                    stack.push((index, d + 1));
                }
                ExprKind::Unary { operand, .. } => stack.push((operand, d + 1)),
                ExprKind::Call { args, .. } => stack.extend(args.iter().map(|a| (a, d + 1))),
                _ => {}
            }
        }
        deepest
    }

    fn let_init(m: &Module) -> &Expr {
        let StmtKind::Let { init: Some(e), .. } = &m.functions[0].body.stmts[0].kind else {
            panic!("expected an initialized let")
        };
        e
    }

    #[test]
    fn long_sum_chain_is_a_typed_error() {
        let terms = vec!["1"; 20_000].join(" + ");
        depth_error(&format!("fn main() {{ let x: int = {terms}; }}"));
    }

    #[test]
    fn long_index_chain_is_a_typed_error() {
        let steps: String = (1..=20_000).map(|i| format!("[{i}]")).collect();
        depth_error(&format!("fn main() {{ let x: int = a{steps}; }}"));
    }

    #[test]
    fn chains_up_to_the_depth_limit_parse() {
        // A chain of n terms is n levels deep: n - 1 operators plus a leaf.
        let terms = vec!["1"; MAX_EXPR_DEPTH].join(" + ");
        let m = parse(&format!("fn main() {{ let x: int = {terms}; }}"));
        assert_eq!(tree_depth(let_init(&m)), MAX_EXPR_DEPTH);
        let steps = "[0]".repeat(MAX_EXPR_DEPTH - 1);
        let m = parse(&format!("fn main() {{ let x: int = a{steps}; }}"));
        assert_eq!(tree_depth(let_init(&m)), MAX_EXPR_DEPTH);
        // One more level fails.
        let terms = vec!["1"; MAX_EXPR_DEPTH + 1].join(" + ");
        depth_error(&format!("fn main() {{ let x: int = {terms}; }}"));
        depth_error(&format!("fn main() {{ let x: int = a{steps}[0]; }}"));
    }

    #[test]
    fn depth_counts_across_parentheses_and_calls() {
        // Each parenthesized group is a chain of 100 terms nested inside
        // the next group's first term: 3 groups nest 300 levels deep.
        let chain = |inner: &str| format!("({inner}{})", " + 1".repeat(99));
        let src = chain(&chain(&chain("1")));
        depth_error(&format!("fn main() {{ let x: int = {src}; }}"));
        let call = format!("f({})", vec!["1"; 200].join(" * "));
        let m = parse(&format!("fn main() {{ let x: int = {call} - 1; }}"));
        assert_eq!(tree_depth(let_init(&m)), 202);
    }

    #[test]
    fn nesting_below_the_limit_parses() {
        parse(&let_source("(", ")", MAX_NESTING_DEPTH - 8));
        parse(&let_source("-", "", MAX_NESTING_DEPTH - 8));
        let ifs = MAX_NESTING_DEPTH - 8;
        parse(&format!(
            "fn f(a: int) {{ {}{} }}",
            "if a > 0 { ".repeat(ifs),
            "}".repeat(ifs)
        ));
    }
}
