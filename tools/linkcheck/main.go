// Command linkcheck verifies that intra-repo links in markdown files
// resolve: every relative `[text](path)` and `[text](path#anchor)` target
// must exist on disk, relative to the file that references it. External
// links (http/https/mailto) and pure in-page anchors (#...) are skipped —
// this is a dead-FILE-reference gate, not a web crawler. In *.go files it
// checks the markdown documents that comments cite by name: a bare name
// must exist at the repository root or under docs/, one with a path
// relative to the root (the working directory) — comments cited a design
// document that never existed for twenty PRs. CI runs it over docs/*.md,
// README.md and the Go tree so documentation cannot drift away from the
// tree it describes.
//
// Usage: linkcheck <file-or-dir> [...]   (from the repository root)
// Directories are walked for *.md and *.go files.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links; images share the syntax bar the
// leading '!', which the pattern tolerates.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// docNameRe matches a markdown file cited in a Go comment, bare or with a
// path (glob patterns like docs/*.md do not match).
var docNameRe = regexp.MustCompile(`[\w./-]*[\w-]\.md\b`)

// codeSpanRe strips inline code spans before link extraction — protocol
// notation like `EA_PROP2[r](aux)` is link-shaped but not a link.
var codeSpanRe = regexp.MustCompile("`[^`]*`")

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: linkcheck <file-or-dir> [...]")
		os.Exit(2)
	}
	var files []string
	for _, arg := range os.Args[1:] {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".md") || strings.HasSuffix(path, ".go")) {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
	}
	dead := 0
	for _, f := range files {
		if strings.HasSuffix(f, ".go") {
			dead += checkGo(f)
		} else {
			dead += check(f)
		}
	}
	if dead > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d dead file reference(s)\n", dead)
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d file(s), all intra-repo links resolve\n", len(files))
}

// checkGo reports the markdown files that one Go file's comments cite
// but the tree does not have.
func checkGo(file string) int {
	dead := 0
	for i, line := range lines(file) {
		_, comment, _ := strings.Cut(line, "//")
		for _, name := range docNameRe.FindAllString(comment, -1) {
			_, err := os.Stat(filepath.FromSlash(name))
			if err != nil && !strings.Contains(name, "/") {
				_, err = os.Stat(filepath.Join("docs", name))
			}
			if err != nil {
				fmt.Printf("%s:%d: comment cites %q, which exists neither at the repository root nor under docs/\n", file, i+1, name)
				dead++
			}
		}
	}
	return dead
}

// lines reads a file to check.
func lines(file string) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
		os.Exit(2)
	}
	return strings.Split(string(data), "\n")
}

// check reports dead references in one markdown file.
func check(file string) int {
	dir := filepath.Dir(file)
	dead := 0
	inFence := false
	for i, line := range lines(file) {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		line = codeSpanRe.ReplaceAllString(line, "")
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			// Strip an in-page anchor; a bare "#..." link has no file part.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(dir, filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				fmt.Printf("%s:%d: dead link %q (resolved %s)\n", file, i+1, m[1], resolved)
				dead++
			}
		}
	}
	return dead
}
